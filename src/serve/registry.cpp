#include "serve/registry.h"

#include <utility>

#include "util/check.h"

namespace bkc::serve {

ModelRegistry::ModelRegistry(int load_threads)
    : load_threads_(load_threads) {
  check(load_threads >= 1, "ModelRegistry: load_threads must be >= 1");
}

ModelHandle ModelRegistry::open(const std::string& name,
                                const std::string& path) {
  check(!name.empty(), "ModelRegistry::open: empty model name");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = models_.find(name);
  if (it != models_.end()) {
    check(it->second->path() == path,
          "ModelRegistry::open: model '", name, "' is already resident from '",
          it->second->path(), "', refusing to shadow it with '", path, "'");
    return it->second;
  }
  // Parse and validate once (header, sections, CRCs, payload
  // plausibility) and reconstruct the engine straight from the mapped
  // state; the mapping is dropped once the engine owns its copy.
  ModelHandle handle = std::make_shared<const ServedModel>(
      name, path, Engine::load_compressed(path, load_threads_));
  models_.emplace(name, handle);
  return handle;
}

ModelHandle ModelRegistry::get(const std::string& name) const {
  ModelHandle handle = find(name);
  check(handle != nullptr,
        "ModelRegistry::get: no resident model named '", name, "'");
  return handle;
}

ModelHandle ModelRegistry::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second;
}

bool ModelRegistry::contains(const std::string& name) const {
  return find(name) != nullptr;
}

std::size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return models_.size();
}

std::vector<std::string> ModelRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(models_.size());
  for (const auto& [name, handle] : models_) out.push_back(name);
  return out;
}

std::size_t ModelRegistry::evict_unused() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t evicted = 0;
  for (auto it = models_.begin(); it != models_.end();) {
    // use_count == 1 means the registry holds the only reference; no
    // session can acquire a new handle concurrently because every
    // acquisition path takes mutex_, so the check cannot race.
    if (it->second.use_count() == 1) {
      it = models_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  return evicted;
}

}  // namespace bkc::serve
