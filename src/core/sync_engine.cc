#include "src/core/sync_engine.h"

#include "src/ar/ar_numeric.h"
#include "src/ps/ps_async.h"
#include "src/ps/ps_numeric.h"
#include "src/sync/int8_ps.h"
#include "src/sync/topk_ps.h"

namespace parallax {

std::vector<int> SyncPlan::ManagedBy(const std::string& engine) const {
  PX_CHECK_EQ(engines.size(), variables.size());
  std::vector<int> managed;
  for (size_t v = 0; v < engines.size(); ++v) {
    if (engines[v] == engine) {
      managed.push_back(static_cast<int>(v));
    }
  }
  return managed;
}

SyncEngineRegistry& SyncEngineRegistry::Global() {
  static SyncEngineRegistry* registry = [] {
    auto* r = new SyncEngineRegistry();
    auto must = [&](Status status) { PX_CHECK(status.ok()) << status.ToString(); };
    must(r->Register("ps", [](const SyncEngineEnv& env) -> std::unique_ptr<SyncEngine> {
      return std::make_unique<PsNumericEngine>(env.graph);
    }));
    must(r->Register("ar", [](const SyncEngineEnv& env) -> std::unique_ptr<SyncEngine> {
      return std::make_unique<ArNumericEngine>(env.graph);
    }));
    must(r->Register("async_ps",
                     [](const SyncEngineEnv& env) -> std::unique_ptr<SyncEngine> {
                       return std::make_unique<AsyncPsEngine>(env.graph);
                     }));
    // Gradient compression engines (docs/compression.md): synchronous PS semantics
    // with the gradient transformed before it reaches the accumulators.
    must(r->Register("topk_ps",
                     [](const SyncEngineEnv& env) -> std::unique_ptr<SyncEngine> {
                       return std::make_unique<TopKPsEngine>(env.graph, TopKPsConfig{});
                     }));
    must(r->Register("int8_ps",
                     [](const SyncEngineEnv& env) -> std::unique_ptr<SyncEngine> {
                       return std::make_unique<Int8PsEngine>(env.graph, Int8PsConfig{});
                     }));
    return r;
  }();
  return *registry;
}

Status SyncEngineRegistry::Register(const std::string& name, Factory factory) {
  if (name.empty()) {
    return Status::InvalidArgument("sync engine registration needs a non-empty name");
  }
  if (factory == nullptr) {
    return Status::InvalidArgument("sync engine '" + name + "' registered a null factory");
  }
  if (!factories_.emplace(name, std::move(factory)).second) {
    return Status::InvalidArgument("sync engine '" + name + "' is already registered");
  }
  return Status::Ok();
}

bool SyncEngineRegistry::Contains(const std::string& name) const {
  return factories_.find(name) != factories_.end();
}

std::vector<std::string> SyncEngineRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) {
    names.push_back(name);
  }
  return names;
}

StatusOr<std::unique_ptr<SyncEngine>> SyncEngineRegistry::CreateChecked(
    const std::string& name, const SyncEngineEnv& env) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string registered;
    for (const std::string& known : Names()) {
      registered += registered.empty() ? known : ", " + known;
    }
    return Status::NotFound("unknown sync engine '" + name + "' (registered: " +
                            registered + ")");
  }
  std::unique_ptr<SyncEngine> engine = it->second(env);
  PX_CHECK(engine != nullptr) << "factory for '" << name << "' returned null";
  engine->name_ = name;
  return engine;
}

}  // namespace parallax
