#pragma once
// The model registry: N compressed models resident at once, each
// container parsed exactly once and its engine shared by every session
// that serves it.
//
// This is the deployment story of the paper scaled out: compressed
// models are small enough that many of them fit in memory together.
// Opening a model maps and validates the container once
// (MappedBkcm::open — header, section table, CRCs) and reconstructs the
// inference engine once from the already-mapped state
// (Engine::load_compressed(MappedBkcm) — no second parse, no second
// checksum pass). The engine copies out everything it needs, so the
// mapping is released as soon as the load returns and each entry holds
// one copy of the model; every subsequent open() of the same name
// returns the same refcounted entry.
//
// Lifetime: handles are shared_ptrs. The registry holds one reference
// per resident model; sessions (schedulers, queued requests, demo code)
// hold the rest. evict_unused() drops every entry no session currently
// references — a model with in-flight requests can never be evicted out
// from under them, because each queued request pins its handle.

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"

namespace bkc::serve {

/// One resident model: the Engine reconstructed from its container
/// (streams, decode tables, report and installed kernels). Immutable
/// after construction — every Engine method the serving path calls is
/// const, so one ServedModel is safely shared by any number of
/// sessions.
class ServedModel {
 public:
  ServedModel(std::string name, std::string path, Engine engine)
      : name_(std::move(name)),
        path_(std::move(path)),
        engine_(std::move(engine)) {}

  const std::string& name() const { return name_; }
  const std::string& path() const { return path_; }
  /// The reconstructed engine; classify/classify_batch are const and
  /// safe to call from any session.
  const Engine& engine() const { return engine_; }

 private:
  std::string name_;
  std::string path_;
  Engine engine_;
};

/// Refcounted access to a resident model. Hold one for as long as the
/// model is in use; the registry can only evict models with no
/// outstanding handles.
using ModelHandle = std::shared_ptr<const ServedModel>;

/// Open-once registry of BKCM containers, keyed by caller-chosen name.
/// Thread-safe: every method takes the registry lock (open() holds it
/// across the load, so two sessions racing to open the same name load
/// it exactly once and both get the same entry).
class ModelRegistry {
 public:
  /// `load_threads` sizes the stream-decode fan-out of each container
  /// load (Engine::load_compressed). Precondition: >= 1.
  explicit ModelRegistry(int load_threads = 2);

  /// Map + validate + reconstruct the container at `path` under `name`,
  /// or return the existing entry when `name` is already resident
  /// (open-once; a second open must name the same path — CheckError
  /// otherwise, so two sessions cannot silently serve different files
  /// under one name). CheckError on a truncated, corrupt or
  /// inconsistent container, naming the failing section; a failed open
  /// leaves the registry unchanged.
  ModelHandle open(const std::string& name, const std::string& path);

  /// The resident model named `name`; CheckError when absent.
  ModelHandle get(const std::string& name) const;

  /// Like get(), but nullptr when absent.
  ModelHandle find(const std::string& name) const;

  bool contains(const std::string& name) const;
  std::size_t size() const;
  std::vector<std::string> names() const;

  /// Drop every model no session holds a handle to (refcount == the
  /// registry's own reference) and return how many were evicted. Models
  /// with outstanding handles stay resident and keep their identity.
  std::size_t evict_unused();

 private:
  mutable std::mutex mutex_;
  int load_threads_;
  std::map<std::string, ModelHandle> models_;
};

}  // namespace bkc::serve
