#include "src/digg/platform.h"

#include <algorithm>
#include <stdexcept>

#include "src/digg/story.h"

namespace digg::platform {

Platform::Platform(graph::Digraph network, std::vector<UserProfile> users,
                   std::unique_ptr<PromotionPolicy> policy,
                   QueueParams queue_params)
    : network_(std::move(network)),
      users_(std::move(users)),
      policy_(std::move(policy)),
      queue_params_(queue_params) {
  if (!policy_) throw std::invalid_argument("Platform: null promotion policy");
  if (users_.size() != network_.node_count())
    throw std::invalid_argument(
        "Platform: user population and network size mismatch");
  // Budget slots by the hybrid set's worst case — two word-packed bitmaps
  // (1 bit per user each) plus slack for the sorted arrays and watcher pool.
  // Reserve up front so slot addresses (and thus visibility() references)
  // never move.
  const std::size_t per_slot =
      std::max<std::size_t>(1, users_.size()) / 4 + 4096;
  vis_capacity_ = std::clamp<std::size_t>(kVisCacheBudgetBytes / per_slot, 8,
                                          4096);
  vis_slots_.reserve(vis_capacity_);
}

StoryId Platform::submit(UserId submitter, double quality, Minutes now) {
  if (submitter >= users_.size())
    throw std::out_of_range("Platform::submit: unknown user");
  const auto id = static_cast<StoryId>(stories_.size());
  stories_.push_back(make_story(id, submitter, now, quality));
  vis_slot_of_.push_back(kNoSlot);  // set materialises lazily on first use
  upcoming_.push_front(id);
  return id;
}

bool Platform::vote(StoryId story_id, UserId user, Minutes now) {
  if (story_id >= stories_.size())
    throw std::out_of_range("Platform::vote: unknown story");
  Story& s = stories_[story_id];
  // Fetch the slot *before* appending the vote: a cache miss replays the
  // current vote column, after which the incremental add_voter in
  // apply_vote brings the set to the post-vote state exactly once.
  VisibilitySet& vis = visibility_slot(story_id);
  if (!apply_vote(s, vis, user, now)) return false;
  upcoming_.remove(story_id);
  front_page_.push_front(story_id);
  return true;
}

bool Platform::apply_vote(Story& s, VisibilitySet& vis, UserId user,
                          Minutes now) const {
  if (user >= users_.size())
    throw std::out_of_range("Platform::vote: unknown user");
  if (s.phase == StoryPhase::kExpired)
    throw std::logic_error("Platform::vote: story expired");
  add_vote(s, user, now);
  vis.add_voter(user);
  if (s.phase == StoryPhase::kUpcoming &&
      policy_->should_promote(s, network_, now)) {
    s.phase = StoryPhase::kFrontPage;
    s.promoted_at = now;
    return true;
  }
  return false;
}

void Platform::expire_stale(Minutes now) {
  // Collect first: Listing::remove invalidates iteration order.
  std::vector<StoryId> stale_ids;
  for (StoryId id : upcoming_.items()) {
    if (stale(stories_[id], now)) stale_ids.push_back(id);
  }
  for (StoryId id : stale_ids) {
    stories_[id].phase = StoryPhase::kExpired;
    upcoming_.remove(id);
  }
}

void Platform::commit(Story&& finished) {
  const StoryId id = finished.id;
  if (id >= stories_.size())
    throw std::out_of_range("Platform::commit: unknown story");
  Story& s = stories_[id];
  const bool was_upcoming = s.phase == StoryPhase::kUpcoming;
  s = std::move(finished);
  if (was_upcoming && s.phase != StoryPhase::kUpcoming) {
    upcoming_.remove(id);
    if (s.phase == StoryPhase::kFrontPage) front_page_.push_front(id);
  }
  drop_visibility(id);
}

void Platform::release_votes(StoryId id) {
  if (id >= stories_.size())
    throw std::out_of_range("Platform::release_votes: unknown story");
  Story& s = stories_[id];
  s.voters = {};
  s.times = {};
  drop_visibility(id);
}

void Platform::drop_visibility(StoryId id) {
  const std::uint32_t slot = vis_slot_of_[id];
  if (slot == kNoSlot) return;
  vis_slot_of_[id] = kNoSlot;
  VisSlot& vs = vis_slots_[slot];
  // Keep vs.story = id: the eviction path indexes vis_slot_of_ by it, and
  // re-clearing this story's (already empty) entry there is harmless.
  vs.last_used = 0;  // first in line for reuse
  vs.set.shed();
}

const Story& Platform::story(StoryId id) const {
  if (id >= stories_.size())
    throw std::out_of_range("Platform::story: unknown story");
  return stories_[id];
}

const VisibilitySet& Platform::visibility(StoryId id) const {
  if (id >= stories_.size())
    throw std::out_of_range("Platform::visibility: unknown story");
  return visibility_slot(id);
}

VisibilitySet& Platform::visibility_slot(StoryId id) const {
  std::uint32_t slot = vis_slot_of_[id];
  if (slot == kNoSlot) {
    if (vis_slots_.size() < vis_capacity_) {
      slot = static_cast<std::uint32_t>(vis_slots_.size());
      vis_slots_.emplace_back();
    } else {
      // Evict the least recently used slot. Linear scan: capacity is a few
      // hundred slots and misses are rare once the working set is resident.
      slot = 0;
      for (std::uint32_t i = 1; i < vis_slots_.size(); ++i) {
        if (vis_slots_[i].last_used < vis_slots_[slot].last_used) slot = i;
      }
      vis_slot_of_[vis_slots_[slot].story] = kNoSlot;
    }
    VisSlot& vs = vis_slots_[slot];
    vs.story = id;
    vis_slot_of_[id] = slot;
    vs.set.rebind(network_);
    // Deterministic rebuild: replaying the vote column in order reproduces
    // the exact watcher pool / exposure log the evicted set had.
    for (UserId voter : stories_[id].voters) vs.set.add_voter(voter);
  }
  VisSlot& vs = vis_slots_[slot];
  vs.last_used = ++vis_clock_;
  return vs.set;
}

DetachedStory::DetachedStory(const Platform& platform, StoryId id)
    : platform_(&platform),
      story_(platform.story(id)),
      vis_(platform.network()) {
  for (UserId voter : story_.voters) vis_.add_voter(voter);
}

bool DetachedStory::vote(UserId user, Minutes now) {
  return platform_->apply_vote(story_, vis_, user, now);
}

bool DetachedStory::expire_if_stale(Minutes now) {
  if (platform_->stale(story_, now)) story_.phase = StoryPhase::kExpired;
  return story_.phase == StoryPhase::kExpired;
}

}  // namespace digg::platform
