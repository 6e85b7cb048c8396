#ifndef KDSEL_SERVE_REGISTRY_H_
#define KDSEL_SERVE_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "core/pipeline.h"
#include "core/trainer.h"

namespace kdsel::serve {

/// Keeps named TrainedSelectors resident in memory for serving.
///
/// The registry owns one canonical, immutable instance per name behind a
/// shared_ptr "snapshot". Hot-reload builds the replacement off-lock and
/// swaps the pointer, so in-flight requests holding the old snapshot are
/// never blocked or invalidated; they finish on the version they
/// started with and the next batch picks up the new one.
///
/// Thread-safety contract: the canonical instance is only ever *read*.
/// Inference forwards write no module state, so every server worker and
/// stream re-score chunk predicts on the one shared snapshot at once.
/// Snapshot `version` numbers tell callers which load served them.
class SelectorRegistry {
 public:
  /// `manager` names the on-disk selector store used by Load/Reload.
  explicit SelectorRegistry(core::SelectorManager manager);

  struct Snapshot {
    std::shared_ptr<const core::TrainedSelector> selector;
    uint64_t version = 0;
  };

  /// Loads (or reloads) `name` from the manager's directory and swaps it
  /// in. Disk I/O and deserialization happen outside the registry lock.
  Status Load(const std::string& name);

  /// Registers an in-memory selector under `name` (tests, benches, and
  /// deployments that train in-process). Replaces any existing entry.
  Status Register(const std::string& name,
                  std::unique_ptr<core::TrainedSelector> selector);

  /// Current snapshot for `name`; NotFound when not resident.
  StatusOr<Snapshot> Get(const std::string& name) const;

  /// Get, falling back to a disk load when the name is not resident yet.
  StatusOr<Snapshot> GetOrLoad(const std::string& name);

  /// Re-reads every resident selector from disk. Entries registered
  /// purely in memory (no file) are left untouched. Returns the first
  /// error but keeps reloading the rest.
  Status ReloadAll();

  /// Drops `name` from memory (files are untouched). False if absent.
  bool Evict(const std::string& name);

  /// Names currently resident, sorted.
  std::vector<std::string> ResidentNames() const;

  /// Names available in the on-disk store.
  StatusOr<std::vector<std::string>> DiskNames() const {
    return manager_.List();
  }

  const core::SelectorManager& manager() const { return manager_; }

 private:
  Status Swap(const std::string& name,
              std::shared_ptr<const core::TrainedSelector> selector);

  core::SelectorManager manager_;
  mutable std::mutex mu_;
  uint64_t next_version_ KDSEL_GUARDED_BY(mu_) = 1;
  std::map<std::string, Snapshot> selectors_ KDSEL_GUARDED_BY(mu_);
};

}  // namespace kdsel::serve

#endif  // KDSEL_SERVE_REGISTRY_H_
