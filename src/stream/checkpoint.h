#pragma once
// Stream-engine checkpoints: the DIGGSNAP sections that make a replay
// killable and resumable with bit-identical results. StreamEngine::
// save_checkpoint / restore_checkpoint (engine.h) are implemented in
// checkpoint.cpp against this format; this header documents the payloads
// and offers a cheap inspection helper.
//
// A checkpoint is a DIGGSNAP container (data/snapshot_format.h). Replay
// and live engines write the same three sections (S = story count, C/I =
// cascade/influence checkpoint counts, H = the engine horizon):
//
//   STREAM_META (16) — everything needed to refuse a mismatched restore:
//     u32  checkpoint version (kStreamCheckpointVersion)
//     u32  predictor armed (0/1 — online-prediction hook active)
//     u64  stream fingerprint (stories, vote columns, graph shape; live
//          engines fingerprint an empty stream: the graph shape alone)
//     u64  total events        u64  events applied
//     u64  story count         u64  interesting threshold
//     u32  promotion threshold
//     u32  bayes fit enabled (0/1)     u32  bayes fit_at
//     u32  live mode (0/1)
//     u32  cascade checkpoint count,   then that many u32 checkpoints
//     u32  influence checkpoint count, then that many u32 checkpoints
//
//   STREAM_STATE (17) — per-story progress columns, story-slot order:
//     u64[S]      votes applied
//     u32[S]      running in-network count
//     u8[S]       flags (prediction made / predicted yes / promoted /
//                 bayes fit made / bayes yes)
//     f64[S]      promotion time (valid when the promoted flag is set)
//     u32[S*C]    recorded cascade values  (0xffffffff = not yet reached)
//     u32[S*I]    recorded influence values (same sentinel)
//     f64[S]      bayes watcher-exposure accumulator  [iff bayes enabled:
//     f32[S]      bayes expected-final estimate        exposure grows below
//                 the fit point, so kill/resume bit-identity needs it]
//
//   STORY_TABLE (18) — the engine's story table. Each story's prefix
//   length is min(applied, H), derived from STREAM_STATE, so P below is
//   the sum of those lengths (O(stories * horizon), never O(votes)):
//     u32[S]      story ids          u32[S]  submitters
//     pad to 8    f64[S]  latest applied vote time per story (0 if none)
//     u32[P]      concatenated prefix voter columns
//     pad to 8    f64[P]  concatenated prefix time columns
//
// Deliberately NOT serialized: visibility sets, rebuilt on demand by
// replaying each story's applied prefix (bounded by the horizon). The
// checkpoint is therefore small — O(stories), not O(votes or graph) — and
// restore cannot resurrect stale derived state: everything derivable is
// re-derived. Since per-story state depends only on the story's own vote
// prefix, a replay engine and a live engine fed the same per-story vote
// orders write byte-identical STREAM_STATE and STORY_TABLE sections.
//
// Restore-time validation (each with a distinct error): container magic /
// version / checksum (snapshot_format.cpp), checkpoint version, engine
// mode, stream fingerprint, engine config equality, column sizes, and
// per-story consistency — records present iff their checkpoint was
// reached, flags consistent with progress, prefixes in graph range, time-
// sorted and led by the submitter. A replay restore also requires the
// applied column to be exactly the per-story event counts of the stream's
// first events-applied events, and the story table to match the stream; a
// live restore requires the applied column to sum to events applied.

#include <cstdint>
#include <filesystem>

namespace digg::stream {

// v4: one layout for both engine modes (the story table is always
// written). Earlier versions are refused, not migrated.
inline constexpr std::uint32_t kStreamCheckpointVersion = 4;

/// Cheap peek at a checkpoint's STREAM_META section (full container
/// integrity is still verified). Lets tools report progress or pick the
/// right corpus without constructing an engine.
struct CheckpointInfo {
  std::uint32_t version = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t total_events = 0;
  std::uint64_t events_applied = 0;
  std::uint64_t story_count = 0;
  bool live = false;  // written by a live-ingest engine
};

[[nodiscard]] CheckpointInfo read_checkpoint_info(
    const std::filesystem::path& path);

}  // namespace digg::stream
