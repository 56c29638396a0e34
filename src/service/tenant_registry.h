// The planning service's shard-per-tenant engine pool: each tenant (a training job, a
// team, an experiment) registers its own ClusterSpec + EngineOptions and gets a private
// dcp::Engine — its own planner knobs, plan cache, and optional persistent plan store.
// Tenants therefore never observe each other's plans: a signature computed under one
// tenant's options cannot collide with another's unless the configurations are truly
// identical, and even then the engines (and stores) are separate objects.
#ifndef DCP_SERVICE_TENANT_REGISTRY_H_
#define DCP_SERVICE_TENANT_REGISTRY_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/engine.h"
#include "runtime/cluster.h"

namespace dcp {

struct TenantConfig {
  std::string name;
  ClusterSpec cluster;
  EngineOptions options;
};

class TenantRegistry {
 public:
  TenantRegistry() = default;
  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  // Constructs the tenant's Engine eagerly (warm-loading its plan store, if any), so
  // the first request pays no setup. Rejects empty and duplicate names.
  Status Register(const TenantConfig& config);

  // The tenant's engine, or nullptr when unknown. Engines are shared_ptr so in-flight
  // requests survive concurrent registry mutation.
  std::shared_ptr<Engine> Find(const std::string& name) const;

  std::vector<std::string> Names() const;  // Sorted, for a deterministic gossip order.

 private:
  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Engine>> tenants_
      DCP_GUARDED_BY(mu_);
};

}  // namespace dcp

#endif  // DCP_SERVICE_TENANT_REGISTRY_H_
