#pragma once
// The pluggable generative-model boundary. A dynamics::Model describes one
// theory of how votes accumulate on a story (the paper's two-mechanism
// model, Hogg & Lerman's rate-based stochastic model, ...); everything
// downstream — synthetic generation, streamed generation, the scenario
// presets, the CLI — drives models through this interface instead of
// hard-coding one implementation.
//
// Determinism / RNG contract, relied on by parallel generation:
//   - make_simulator() receives an Rng by value; the simulator owns it.
//   - A simulator derives each story's draws from rng.split(story_id), a
//     counter-based substream keyed on the *seed* (stats/rng.h). Story runs
//     therefore do not depend on RNG-consumption order: simulating stories
//     {0,1,2} or just {2} produces bit-identical votes for story 2 (given
//     the same platform submissions).
//   - A run touches only its own story: run() reads and writes one
//     platform::DetachedStory (the story's record and visibility set) and
//     otherwise only reads the platform's const state (network, users,
//     policy, queue params) and the simulator's own const state; it
//     writes nothing shared.
//   - So simulate_each (vote_model.h) runs a window of stories at once on
//     the runtime's lanes (runtime::default_threads(), DIGG_THREADS) and
//     commits them back in story-id order: the platform, and hence every
//     corpus, is bit-identical for any lane count, eager or streamed
//     (data/synthetic.cpp's contract).
//   - Expiry is per story: a run expires its own story once it is upcoming
//     past the queue lifetime, and never another. In generation that is
//     exactly the serial behaviour — earlier stories have finished as
//     promoted or expired, and later ones are younger than the lifetime.
//
// Identity: id() is a stable string recorded in snapshots (DIGGSNAP
// MODELINFO section) and used by the CLI scenario parser. Renaming an id is
// a format break — old snapshots name the model that generated them.
//
// Parameters: params()/set_param() expose every numeric knob by name so
// benches and the scenario CLI can override them generically
// (--model-param step=2). Unknown names are rejected, not ignored.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/digg/platform.h"
#include "src/digg/types.h"
#include "src/stats/rng.h"
#include "src/stats/timeseries.h"

namespace digg::dynamics {

using platform::Minutes;
using platform::StoryId;
using platform::UserId;

/// Latent per-story appeal. `general` doubles as Story::quality on the
/// platform; `community` only matters to fans of prior voters.
struct StoryTraits {
  double general = 0.2;    // in [0,1]
  double community = 0.2;  // in [0,1]
};

/// Result of simulating one story to its horizon.
struct StoryRun {
  StoryId story = 0;
  stats::TimeSeries votes_over_time;  // cumulative votes, minute resolution
  std::size_t fan_channel_votes = 0;  // votes that arrived via the Friends
                                      // interface channel (network spread)
  std::size_t discovery_votes = 0;    // independent discovery (upcoming +
                                      // front page)
};

/// One numeric model parameter, exposed by name for CLI/bench overrides.
struct ModelParam {
  std::string name;
  double value = 0.0;
};

/// A per-run simulator instance bound to one platform. Created by
/// Model::make_simulator; drives already-submitted stories to their horizon
/// (promotion fires through the platform's policy, whichever is
/// configured).
class Simulator {
 public:
  virtual ~Simulator() = default;

  /// Simulates the full lifetime of one detached story, recording its votes
  /// on `story`. Traits' `general` should match the story's platform
  /// quality. All randomness comes from rng.split(id), and the run touches
  /// nothing outside `story` (see the contract above), so concurrent calls
  /// on different stories are safe.
  virtual StoryRun run(platform::DetachedStory& story,
                       const StoryTraits& traits) const = 0;

  /// run() on story `id` of the bound platform, committed back at once.
  StoryRun run_story(StoryId id, const StoryTraits& traits);

 protected:
  explicit Simulator(platform::Platform& platform) : platform_(&platform) {}

 private:
  platform::Platform* platform_;
};

/// A generative vote model: stable id + parameter set + simulator factory.
/// Models are value-like (clone()) so scenario specs can carry configured
/// instances.
class Model {
 public:
  virtual ~Model() = default;

  /// Stable identifier, recorded in snapshots and used by the CLI.
  [[nodiscard]] virtual std::string id() const = 0;

  /// Every numeric parameter by name, current values.
  [[nodiscard]] virtual std::vector<ModelParam> params() const = 0;
  /// Sets one parameter by name; returns false (and changes nothing) for
  /// unknown names.
  virtual bool set_param(std::string_view name, double value) = 0;

  [[nodiscard]] virtual std::unique_ptr<Model> clone() const = 0;

  /// Binds a simulator to `platform`, owning `rng` as its base stream.
  /// The platform must outlive the simulator.
  [[nodiscard]] virtual std::unique_ptr<Simulator> make_simulator(
      platform::Platform& platform, stats::Rng rng) const = 0;
};

/// Stable ids of the built-in models (registered automatically).
inline constexpr char kLegacyModelId[] = "two-mechanism";
inline constexpr char kStochasticModelId[] = "stochastic";

/// Registers `prototype` under its id(). Returns false (and keeps the
/// existing registration) if the id is already taken. Thread-safe.
bool register_model(std::unique_ptr<Model> prototype);

/// True if a model with this id is registered.
[[nodiscard]] bool model_registered(std::string_view id);

/// All registered ids, sorted (builtins always present).
[[nodiscard]] std::vector<std::string> registered_model_ids();

/// Clone of the registered prototype (default parameters). Throws
/// std::invalid_argument naming the unknown id and listing known ones.
[[nodiscard]] std::unique_ptr<Model> make_model(std::string_view id);

}  // namespace digg::dynamics
