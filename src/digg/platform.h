#pragma once
// The Digg platform simulator: owns the user population, the fan network,
// all stories, the upcoming/front-page listings, and the promotion policy.
// The vote *dynamics* (who votes when) live in src/dynamics; this class is
// the mechanics — it validates votes, maintains per-story visibility, runs
// the promotion check after every vote, and expires stale submissions.
//
// Visibility sets are served from a byte-budgeted LRU cache instead of one
// resident set per story: even the hybrid representation (hybrid_set.h) can
// reach two bitmap-mode sets (~1 bit per network node each) for a
// long-running story, so materialising one per story would still dwarf the
// vote columns on large sites. A missing set is rebuilt deterministically by
// replaying the story's vote column (same insertion order → identical
// watcher pool / exposure log), so eviction is invisible to callers apart
// from the replay cost. References returned by visibility() stay valid until a *different*
// story's set is requested.
//
// A simulation run does not go through that cache. It detaches one story
// (DetachedStory below): the story's own record and visibility set, read
// against the platform's const network, users, policy and queue params.
// Runs on different stories therefore share no mutable state and may
// proceed concurrently; commit() folds each finished record back in.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/digg/friends_interface.h"
#include "src/digg/promotion.h"
#include "src/digg/queue.h"
#include "src/digg/types.h"
#include "src/digg/user.h"

namespace digg::platform {

class DetachedStory;

class Platform {
 public:
  Platform(graph::Digraph network, std::vector<UserProfile> users,
           std::unique_ptr<PromotionPolicy> policy,
           QueueParams queue_params = {});

  /// Submits a story; records the submitter's own digg and places the story
  /// at the top of the upcoming queue.
  StoryId submit(UserId submitter, double quality, Minutes now);

  /// Records a digg. Returns true if this vote triggered promotion.
  /// Throws if the user already voted or the story is expired.
  bool vote(StoryId story, UserId user, Minutes now);

  /// Expires upcoming stories older than the queue lifetime.
  void expire_stale(Minutes now);

  /// Folds a finished DetachedStory run back in: the record replaces the
  /// stored one, and the listing moves vote() and expire_stale() make
  /// (upcoming to front page on promotion, out of upcoming on expiry)
  /// follow. Any cached visibility set of the story is dropped.
  void commit(Story&& finished);

  /// Frees a finished story's vote columns and visibility cache slot once
  /// the votes have been persisted elsewhere (streamed generation keeps the
  /// working set bounded this way). Metadata — phase, promotion time, vote
  /// count via the persisted copy — is unaffected; the story must not
  /// receive further votes or visibility queries afterwards.
  void release_votes(StoryId id);

  [[nodiscard]] const Story& story(StoryId id) const;
  [[nodiscard]] const std::vector<Story>& stories() const noexcept {
    return stories_;
  }
  [[nodiscard]] const Listing& upcoming() const noexcept { return upcoming_; }
  [[nodiscard]] const Listing& front_page() const noexcept {
    return front_page_;
  }
  [[nodiscard]] const graph::Digraph& network() const noexcept {
    return network_;
  }
  [[nodiscard]] const std::vector<UserProfile>& users() const noexcept {
    return users_;
  }
  [[nodiscard]] const PromotionPolicy& policy() const noexcept {
    return *policy_;
  }
  [[nodiscard]] const QueueParams& queue_params() const noexcept {
    return queue_params_;
  }
  /// Live visibility set of a story (who can see it via the Friends
  /// interface right now). The reference stays valid and current until the
  /// next visibility()/vote() call for a *different* story, which may evict
  /// this story's cache slot.
  [[nodiscard]] const VisibilitySet& visibility(StoryId id) const;

  [[nodiscard]] std::size_t story_count() const noexcept {
    return stories_.size();
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Soft cap on resident visibility-set bytes; the per-slot estimate is
  /// the hybrid set's bitmap-mode worst case, so the slot count adapts to
  /// the network size.
  static constexpr std::size_t kVisCacheBudgetBytes = 512ull << 20;

  struct VisSlot {
    VisibilitySet set;
    StoryId story = kNoSlot;     // which story the slot currently holds
    std::uint64_t last_used = 0;  // LRU clock value
  };

  friend class DetachedStory;

  /// Returns the (mutable) cached set for `id`, rebuilding it from the
  /// story's vote column on a miss and bumping its LRU stamp.
  VisibilitySet& visibility_slot(StoryId id) const;
  /// Frees `id`'s cache slot, if it has one.
  void drop_visibility(StoryId id);

  /// The one vote routine of vote() and DetachedStory::vote: validates,
  /// appends to `s`, updates `vis`, and promotes `s` (phase, promoted_at)
  /// if the policy says so. Touches nothing but `s` and `vis`.
  bool apply_vote(Story& s, VisibilitySet& vis, UserId user,
                  Minutes now) const;
  /// True if `s` is upcoming and older than the queue lifetime at `now`.
  [[nodiscard]] bool stale(const Story& s, Minutes now) const noexcept {
    return s.phase == StoryPhase::kUpcoming &&
           now - s.submitted_at > queue_params_.upcoming_lifetime;
  }

  graph::Digraph network_;
  std::vector<UserProfile> users_;
  std::unique_ptr<PromotionPolicy> policy_;
  QueueParams queue_params_;
  std::vector<Story> stories_;
  Listing upcoming_;
  Listing front_page_;

  std::size_t vis_capacity_ = 0;             // max slots (from byte budget)
  mutable std::vector<VisSlot> vis_slots_;   // reserved to capacity up front
  mutable std::vector<std::uint32_t> vis_slot_of_;  // story -> slot / kNoSlot
  mutable std::uint64_t vis_clock_ = 0;
};

/// One story detached from its platform for a simulation run: a copy of the
/// story's record and its own visibility set, bound to the platform's const
/// network, users, promotion policy and queue params. A run reads and
/// writes only this object, so runs on different stories may proceed on
/// different threads; Platform::commit(std::move(d).finish()) hands the
/// result back. The platform must outlive the detached story and must not
/// change under it.
class DetachedStory {
 public:
  DetachedStory(const Platform& platform, StoryId id);

  /// Platform::vote on this story alone: the same checks, vote routine and
  /// promotion decision. The listing moves wait for commit.
  bool vote(UserId user, Minutes now);

  /// This story's part of Platform::expire_stale: expires it if it is
  /// still upcoming past the queue lifetime. Returns true if the story is
  /// expired.
  bool expire_if_stale(Minutes now);

  [[nodiscard]] const Story& story() const noexcept { return story_; }
  [[nodiscard]] const VisibilitySet& visibility() const noexcept {
    return vis_;
  }
  [[nodiscard]] const Platform& platform() const noexcept {
    return *platform_;
  }

  /// Ends the run, handing back the record for Platform::commit.
  [[nodiscard]] Story finish() && { return std::move(story_); }

 private:
  const Platform* platform_;
  Story story_;
  VisibilitySet vis_;
};

}  // namespace digg::platform
