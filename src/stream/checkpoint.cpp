#include "src/stream/checkpoint.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/data/snapshot_format.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/obs/trace.h"
#include "src/stream/engine.h"

namespace digg::stream {

namespace snapfmt = data::snapfmt;

namespace {

double elapsed_us(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct Meta {
  std::uint32_t version = 0;
  bool predictor_armed = false;
  std::uint64_t fingerprint = 0;
  std::uint64_t total_events = 0;
  std::uint64_t events_applied = 0;
  std::uint64_t story_count = 0;
  std::uint64_t interesting_threshold = 0;
  std::uint32_t promotion_threshold = 0;
  bool bayes_enabled = false;
  std::uint32_t bayes_fit_at = 0;
  bool live = false;
  std::vector<std::uint32_t> cascade_cps;
  std::vector<std::uint32_t> influence_cps;
};

Meta read_meta(const snapfmt::SectionFile& file) {
  snapfmt::ByteReader r = file.open(snapfmt::kStreamMeta);
  Meta m;
  m.version = r.pod<std::uint32_t>();
  if (m.version != kStreamCheckpointVersion)
    throw std::runtime_error(file.context +
                             "unsupported stream checkpoint version " +
                             std::to_string(m.version));
  m.predictor_armed = r.pod<std::uint32_t>() != 0;
  m.fingerprint = r.pod<std::uint64_t>();
  m.total_events = r.pod<std::uint64_t>();
  m.events_applied = r.pod<std::uint64_t>();
  m.story_count = r.pod<std::uint64_t>();
  m.interesting_threshold = r.pod<std::uint64_t>();
  m.promotion_threshold = r.pod<std::uint32_t>();
  m.bayes_enabled = r.pod<std::uint32_t>() != 0;
  m.bayes_fit_at = r.pod<std::uint32_t>();
  m.live = r.pod<std::uint32_t>() != 0;
  // Bound the list lengths before allocating: a corrupt count must fail
  // cleanly, not attempt a multi-gigabyte vector.
  const auto checked_count = [&](const char* what) {
    const std::uint32_t n = r.pod<std::uint32_t>();
    if (n > 4096)
      throw std::runtime_error(file.context + "implausible " + what +
                               " checkpoint list length");
    return n;
  };
  m.cascade_cps = r.column<std::uint32_t>(checked_count("cascade"));
  m.influence_cps = r.column<std::uint32_t>(checked_count("influence"));
  return m;
}

}  // namespace

CheckpointInfo read_checkpoint_info(const std::filesystem::path& path) {
  const snapfmt::SectionFile file = snapfmt::read_section_file(path);
  const Meta m = read_meta(file);
  return {m.version,        m.fingerprint, m.total_events,
          m.events_applied, m.story_count, m.live};
}

std::vector<snapfmt::Section> StreamEngine::checkpoint_sections() const {
  const std::uint64_t story_count = progress_.size();
  std::vector<snapfmt::Section> sections(3);

  sections[0].type = snapfmt::kStreamMeta;
  snapfmt::ByteBuffer& meta = sections[0].body;
  meta.pod<std::uint32_t>(kStreamCheckpointVersion);
  meta.pod<std::uint32_t>(predictor_armed_ ? 1 : 0);
  meta.pod<std::uint64_t>(fingerprint_);
  meta.pod<std::uint64_t>(total_events());
  meta.pod<std::uint64_t>(events_applied_);
  meta.pod<std::uint64_t>(story_count);
  meta.pod<std::uint64_t>(params_.interesting_threshold);
  meta.pod<std::uint32_t>(params_.promotion_threshold);
  meta.pod<std::uint32_t>(params_.bayes.enabled ? 1 : 0);
  meta.pod<std::uint32_t>(params_.bayes.fit_at);
  meta.pod<std::uint32_t>(live() ? 1 : 0);
  meta.pod<std::uint32_t>(
      static_cast<std::uint32_t>(params_.cascade_checkpoints.size()));
  meta.column(params_.cascade_checkpoints);
  meta.pod<std::uint32_t>(
      static_cast<std::uint32_t>(params_.influence_checkpoints.size()));
  meta.column(params_.influence_checkpoints);

  sections[1].type = snapfmt::kStreamState;
  snapfmt::ByteBuffer& state = sections[1].body;
  std::vector<std::uint64_t> applied(story_count);
  std::vector<std::uint32_t> innetwork(story_count);
  std::vector<std::uint8_t> flags(story_count);
  std::vector<double> promoted(story_count), last_time(story_count);
  for (std::uint64_t slot = 0; slot < story_count; ++slot) {
    applied[slot] = progress_[slot].applied;
    innetwork[slot] = progress_[slot].innetwork;
    flags[slot] = progress_[slot].flags;
    promoted[slot] = progress_[slot].promoted_time;
    last_time[slot] = progress_[slot].last_time;
  }
  state.column(applied);
  state.column(innetwork);
  state.column(flags);
  state.column(promoted);
  state.column(cascade_rec_);
  state.column(influence_rec_);
  if (params_.bayes.enabled) {
    // Exposure accumulates below the fit point, so kill/resume
    // bit-identity needs the accumulator; the estimate column spares a
    // restored engine re-deriving fits that already fired.
    state.column(bayes_exposure_);
    std::vector<float> estimates(story_count, 0.0f);
    for (std::uint64_t slot = 0; slot < story_count; ++slot)
      estimates[slot] = progress_[slot].bayes_estimate;
    state.column(estimates);
  }

  // The story table: identities, per-story time watermarks, and each
  // story's applied prefix (min(applied, horizon) votes, concatenated).
  sections[2].type = snapfmt::kStoryTable;
  snapfmt::ByteBuffer& table = sections[2].body;
  table.column(ids_);
  table.column(submitters_);
  table.pad8();
  table.column(last_time);
  const auto prefix = [&](const auto& column, std::uint64_t slot) {
    return std::span(column.data() + slot * horizon_,
                     std::min(progress_[slot].applied, horizon_));
  };
  for (std::uint64_t slot = 0; slot < story_count; ++slot)
    table.column(prefix(prefix_voters_, slot));
  table.pad8();
  for (std::uint64_t slot = 0; slot < story_count; ++slot)
    table.column(prefix(prefix_times_, slot));

  return sections;
}

void StreamEngine::save_checkpoint(const std::filesystem::path& path) const {
  obs::Span span("stream_checkpoint_save", "stream");
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<snapfmt::Section> sections = checkpoint_sections();
  snapfmt::write_section_file(path, sections);
  obs::record_event(obs::EventKind::kCheckpointSave, 0, events_applied_);
  obs::Registry::global()
      .histogram("stream.checkpoint_save_us")
      .observe(elapsed_us(t0));
}

void StreamEngine::restore_checkpoint(const std::filesystem::path& path) {
  obs::Span span("stream_checkpoint_restore", "stream");
  const auto t0 = std::chrono::steady_clock::now();

  const snapfmt::SectionFile file = snapfmt::read_section_file(path);
  const std::string& ctx = file.context;
  const Meta m = read_meta(file);

  // Refuse anything that is not this exact stream + engine configuration.
  if (m.live != live())
    throw std::runtime_error(ctx + "checkpoint engine mode mismatch");
  if (m.fingerprint != fingerprint_)
    throw std::runtime_error(ctx + "checkpoint stream fingerprint mismatch");
  if (!m.live &&
      (m.story_count != progress_.size() || m.total_events != total_events()))
    throw std::runtime_error(ctx + "checkpoint stream shape mismatch");
  // A live restore rebuilds the whole story table; requiring a fresh engine
  // keeps the commit step below all-or-nothing simple (the serve layer
  // restores into a just-constructed engine anyway).
  if (m.live && story_count() != 0)
    throw std::runtime_error(ctx +
                             "live checkpoint restore needs a fresh engine");
  if (m.events_applied > m.total_events)
    throw std::runtime_error(ctx + "checkpoint events-applied out of range");
  if (m.cascade_cps != params_.cascade_checkpoints ||
      m.influence_cps != params_.influence_checkpoints ||
      m.interesting_threshold != params_.interesting_threshold ||
      m.promotion_threshold != params_.promotion_threshold ||
      m.predictor_armed != predictor_armed_ ||
      m.bayes_enabled != params_.bayes.enabled ||
      (m.bayes_enabled && m.bayes_fit_at != params_.bayes.fit_at))
    throw std::runtime_error(ctx + "checkpoint engine config mismatch");

  // Column reads are bounds-checked before they allocate, so a forged
  // story count fails here as a truncated section.
  const auto story_count = static_cast<std::size_t>(m.story_count);
  std::vector<std::uint64_t> applied;
  std::vector<std::uint32_t> innetwork;
  std::vector<std::uint8_t> flags;
  std::vector<double> promoted;
  std::vector<std::uint32_t> cascade_rec;
  std::vector<std::uint32_t> influence_rec;
  std::vector<double> bayes_exposure;
  std::vector<float> bayes_estimates;
  std::vector<platform::StoryId> ids;
  std::vector<platform::UserId> submitters, prefix_voters;
  std::vector<double> last_time, prefix_times;
  try {
    snapfmt::ByteReader r = file.open(snapfmt::kStreamState);
    applied = r.column<std::uint64_t>(story_count);
    innetwork = r.column<std::uint32_t>(story_count);
    flags = r.column<std::uint8_t>(story_count);
    promoted = r.column<double>(story_count);
    cascade_rec = r.column<std::uint32_t>(story_count * m.cascade_cps.size());
    influence_rec =
        r.column<std::uint32_t>(story_count * m.influence_cps.size());
    if (m.bayes_enabled) {
      bayes_exposure = r.column<double>(story_count);
      bayes_estimates = r.column<float>(story_count);
    }
    std::uint64_t prefix_total = 0;
    for (const std::uint64_t a : applied)
      prefix_total += std::min(a, horizon_);
    snapfmt::ByteReader t = file.open(snapfmt::kStoryTable);
    ids = t.column<platform::StoryId>(story_count);
    submitters = t.column<platform::UserId>(story_count);
    t.align8();
    last_time = t.column<double>(story_count);
    prefix_voters = t.column<platform::UserId>(prefix_total);
    t.align8();
    prefix_times = t.column<double>(prefix_total);
  } catch (const std::runtime_error& err) {
    throw std::runtime_error(ctx + err.what());
  }

  // Per-story consistency: the applied column must describe exactly the
  // first events-applied events of the stream, and every derived field must
  // agree with that prefix. This catches checkpoints that passed the
  // container checksum but describe an impossible engine state. Replay mode
  // recomputes the expected prefix with the same counting merge run_until
  // uses, from zeroed cursors; live mode has no stream to merge, so the
  // check degrades to the per-story sum matching the global counter (plus
  // the story-table checks below).
  std::vector<std::uint64_t> expect;
  if (m.live) {
    std::uint64_t sum = 0;
    for (const std::uint64_t a : applied) sum += a;
    if (sum != m.events_applied)
      throw std::runtime_error(ctx +
                               "checkpoint progress is not a stream prefix");
  } else {
    expect = merge_prefix_counts(std::vector<std::uint64_t>(story_count, 0),
                                 m.events_applied);
  }
  for (std::size_t slot = 0; slot < story_count; ++slot) {
    if (!m.live && applied[slot] != expect[slot])
      throw std::runtime_error(ctx +
                               "checkpoint progress is not a stream prefix");
    if (m.live && applied[slot] == 0)
      throw std::runtime_error(ctx + "checkpoint live story has no votes");
    if (innetwork[slot] > applied[slot])
      throw std::runtime_error(ctx + "checkpoint in-network count impossible");
    if ((flags[slot] & ~(kHasPrediction | kPredictedYes | kPromoted |
                         kHasBayes | kBayesYes)) != 0)
      throw std::runtime_error(ctx + "checkpoint story flags invalid");
    const bool should_promote = params_.promotion_threshold != 0 &&
                                applied[slot] >= params_.promotion_threshold;
    if (((flags[slot] & kPromoted) != 0) != should_promote)
      throw std::runtime_error(ctx +
                               "checkpoint promotion flag inconsistent");
    const bool should_predict =
        predictor_armed_ &&
        applied[slot] >
            static_cast<std::uint64_t>(
                params_.cascade_checkpoints[v10_index_]);
    if (((flags[slot] & kHasPrediction) != 0) != should_predict)
      throw std::runtime_error(ctx +
                               "checkpoint prediction flag inconsistent");
    const bool should_bayes =
        m.bayes_enabled &&
        applied[slot] > static_cast<std::uint64_t>(m.bayes_fit_at);
    if (((flags[slot] & kHasBayes) != 0) != should_bayes)
      throw std::runtime_error(ctx + "checkpoint bayes flag inconsistent");
    if (m.bayes_enabled && bayes_exposure[slot] < 0.0)
      throw std::runtime_error(ctx + "checkpoint bayes exposure negative");
    for (std::size_t j = 0; j < m.cascade_cps.size(); ++j) {
      const bool reached =
          applied[slot] > static_cast<std::uint64_t>(m.cascade_cps[j]);
      const bool recorded =
          cascade_rec[slot * m.cascade_cps.size() + j] != kUnrecorded;
      if (reached != recorded)
        throw std::runtime_error(
            ctx + "checkpoint cascade records inconsistent with progress");
    }
    for (std::size_t j = 0; j < m.influence_cps.size(); ++j) {
      const bool reached =
          applied[slot] >= static_cast<std::uint64_t>(m.influence_cps[j]);
      const bool recorded =
          influence_rec[slot * m.influence_cps.size() + j] != kUnrecorded;
      if (reached != recorded)
        throw std::runtime_error(
            ctx + "checkpoint influence records inconsistent with progress");
    }
  }

  // Story table: the prefixes must be valid replay material — voters in
  // graph range, times non-decreasing, vote 0 the submitter's own digg, and
  // the watermark at or past the prefix tail. An LRU rebuild replays
  // exactly these columns, so a corrupt prefix would otherwise surface as
  // undefined visibility state. A replay engine also holds the stream the
  // table was copied from, so there the table must match it exactly.
  std::size_t off = 0;
  for (std::size_t slot = 0; slot < story_count; ++slot) {
    const std::size_t n = std::min(applied[slot], horizon_);
    const std::span<const platform::UserId> voters(
        prefix_voters.data() + off, n);
    const std::span<const double> times(prefix_times.data() + off, n);
    off += n;
    if (submitters[slot] >= network_->node_count())
      throw std::runtime_error(ctx + "checkpoint submitter out of range");
    for (std::size_t i = 0; i < n; ++i) {
      if (voters[i] >= network_->node_count())
        throw std::runtime_error(ctx + "checkpoint voter out of range");
      if (i > 0 && times[i] < times[i - 1])
        throw std::runtime_error(ctx + "checkpoint prefix times unsorted");
    }
    if (n > 0 && voters[0] != submitters[slot])
      throw std::runtime_error(ctx + "checkpoint vote 0 is not the submitter");
    if (n > 0 && last_time[slot] < times[n - 1])
      throw std::runtime_error(ctx +
                               "checkpoint time watermark behind prefix");
    if (m.live) continue;
    const platform::StoryView& sv = stream_->stories[slot];
    const std::uint64_t a = applied[slot];
    if (ids[slot] != sv.id || submitters[slot] != sv.submitter ||
        !std::ranges::equal(voters, sv.voters().first(n)) ||
        !std::ranges::equal(times, sv.times().first(n)) ||
        last_time[slot] != (a > 0 ? sv.times()[a - 1] : 0.0))
      throw std::runtime_error(ctx +
                               "checkpoint story table does not match the "
                               "stream");
  }

  // Commit: the restored table replaces the engine's, in either mode (a
  // replay table was just proven equal to the stream). Visibility pools are
  // dropped — they rebuild lazily from the restored prefixes, so no stale
  // derived state can survive a restore; replay cursors need no recompute
  // because the per-story progress IS the cursor state the counting merge
  // resumes from.
  progress_.assign(story_count, Progress{});
  prefix_voters_.assign(story_count * horizon_, 0);
  prefix_times_.assign(story_count * horizon_, 0.0);
  off = 0;
  for (std::size_t slot = 0; slot < story_count; ++slot) {
    Progress& p = progress_[slot];
    p.applied = applied[slot];
    p.innetwork = innetwork[slot];
    // fans1 is derivable, so it is re-derived, not trusted from disk.
    p.fans1 = static_cast<std::uint32_t>(network_->fan_count(submitters[slot]));
    p.flags = flags[slot];
    p.promoted_time = promoted[slot];
    p.bayes_estimate = m.bayes_enabled ? bayes_estimates[slot] : 0.0f;
    p.last_time = last_time[slot];
    const std::size_t n = std::min(applied[slot], horizon_);
    std::copy_n(prefix_voters.data() + off, n,
                prefix_voters_.data() + slot * horizon_);
    std::copy_n(prefix_times.data() + off, n,
                prefix_times_.data() + slot * horizon_);
    off += n;
  }
  ids_ = std::move(ids);
  submitters_ = std::move(submitters);
  bayes_exposure_ = std::move(bayes_exposure);
  cascade_rec_ = std::move(cascade_rec);
  influence_rec_ = std::move(influence_rec);
  pool_slot_of_.assign(story_count, kUnrecorded);
  events_applied_ = m.events_applied;
  for (Shard& shard : shards_) {
    shard.pool.slots.clear();
    shard.pool.clock = 0;
    shard.pool.bytes = 0;
  }

  obs::record_event(obs::EventKind::kCheckpointRestore, 0, events_applied_);
  obs::Registry::global()
      .histogram("stream.checkpoint_restore_us")
      .observe(elapsed_us(t0));
}

}  // namespace digg::stream
