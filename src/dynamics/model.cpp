#include "src/dynamics/model.h"

#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "src/dynamics/stochastic_model.h"
#include "src/dynamics/vote_model.h"

namespace digg::dynamics {

namespace {

struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Model>> prototypes;
};

/// The global model registry. Built-ins are installed on first touch (no
/// static-initialization-order or dead-stripping hazards — a static
/// self-registration object in a static library would be dropped by the
/// linker unless referenced).
Registry& registry() {
  static Registry* r = [] {
    auto* reg = new Registry;
    reg->prototypes.emplace(kLegacyModelId, std::make_unique<VoteModel>());
    reg->prototypes.emplace(kStochasticModelId,
                            std::make_unique<StochasticModel>());
    return reg;
  }();
  return *r;
}

std::string known_ids_joined(const Registry& reg) {
  std::string out;
  for (const auto& [id, proto] : reg.prototypes) {
    if (!out.empty()) out += ", ";
    out += id;
  }
  return out;
}

}  // namespace

StoryRun Simulator::run_story(StoryId id, const StoryTraits& traits) {
  platform::DetachedStory story(*platform_, id);
  StoryRun result = run(story, traits);
  platform_->commit(std::move(story).finish());
  return result;
}

bool register_model(std::unique_ptr<Model> prototype) {
  if (prototype == nullptr)
    throw std::invalid_argument("register_model: null prototype");
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  const std::string id = prototype->id();
  return reg.prototypes.emplace(id, std::move(prototype)).second;
}

bool model_registered(std::string_view id) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  return reg.prototypes.find(std::string(id)) != reg.prototypes.end();
}

std::vector<std::string> registered_model_ids() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<std::string> ids;
  ids.reserve(reg.prototypes.size());
  for (const auto& [id, proto] : reg.prototypes) ids.push_back(id);
  return ids;  // std::map iterates sorted
}

std::unique_ptr<Model> make_model(std::string_view id) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  const auto it = reg.prototypes.find(std::string(id));
  if (it == reg.prototypes.end())
    throw std::invalid_argument("unknown generative model id '" +
                                std::string(id) +
                                "' (known: " + known_ids_joined(reg) + ")");
  return it->second->clone();
}

}  // namespace digg::dynamics
