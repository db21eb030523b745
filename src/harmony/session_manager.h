// Multi-session hosting for the Harmony front end: one process-wide manager
// owns many named concurrent tuning sessions, each a harmony::Server over
// its own core::RoundEngine.  This is the serving shape of the ROADMAP's
// north star — many applications (or many independent tuning problems of
// one application) registering with a single tuning service, each with its
// own strategy, width, deadline policy and telemetry.
//
//   harmony::SessionManager manager;
//   auto gs2 = manager.create("gs2", std::move(pro_strategy), 8, options);
//   ...                        // ranks drive gs2->fetch()/report()
//   auto same = manager.attach("gs2");   // another component joins
//   manager.stats("gs2");                // live accounting snapshot
//   manager.detach("gs2");
//   manager.remove("gs2");               // only once fully detached
//
// Thread-safe (DESIGN.md §12): one shared_mutex guards the name-ordered
// registry.  Lookups (attach, detach, find, stats, names) take the reader
// lock; only create and remove take the writer lock.  Registry traffic
// arrives at session rate, so one lock is enough.  Attach counts are
// atomics on a shared_ptr'd record: attach/detach under the reader lock
// mutate the count without ever excluding each other or unrelated lookups
// (remove's writer lock is what makes its attached==0 check race-free).
// Aggregation (stats, stats_all) copies the handles out under the brief
// reader lock and does every server call after release, so a slow exporter
// or a stats sweep over a big session never holds the registry against
// create/remove (Server's own accessors are wait-free against its traffic
// in turn).  Telemetry is read from the obs::Registry the sessions record
// into (ServerOptions::metrics): Registry::snapshot() for the whole page,
// RegistrySnapshot::find(name, session) for one session's series.
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "harmony/server.h"

namespace protuner::harmony {

/// Misuse of the session registry: duplicate create, attach/stats/remove of
/// an unknown name, remove while still attached.
class SessionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class SessionManager {
 public:
  /// Live accounting snapshot of one hosted session.
  struct SessionStats {
    std::string name;
    std::string strategy;
    std::size_t clients = 0;
    std::size_t active_ranks = 0;  ///< clients minus dropped stragglers
    std::size_t attached = 0;      ///< attach() minus detach() balance
    std::size_t rounds = 0;
    double total_time = 0.0;
    bool converged = false;
    std::optional<std::size_t> convergence_round;
    core::Point best;
  };

  /// Creates and hosts a new named session.  Throws SessionError when the
  /// name is already taken.
  std::shared_ptr<Server> create(const std::string& name,
                                 core::TuningStrategyPtr strategy,
                                 std::size_t clients,
                                 ServerOptions options = {});

  /// Joins an existing session (bumps its attach count).  Throws
  /// SessionError for unknown names.
  std::shared_ptr<Server> attach(const std::string& name);

  /// Releases one attach() of `name`.  Throws SessionError for unknown
  /// names or when the session has no attachment outstanding.
  void detach(const std::string& name);

  /// Lookup without attaching; nullptr for unknown names.
  std::shared_ptr<Server> find(const std::string& name) const;

  /// Unhosts a session.  Throws SessionError while attachments are
  /// outstanding; returns false when the name is unknown.  Components
  /// still holding the shared_ptr keep a working (but unlisted) session.
  bool remove(const std::string& name);

  std::vector<std::string> names() const;
  std::size_t size() const;

  SessionStats stats(const std::string& name) const;
  std::vector<SessionStats> stats_all() const;

 private:
  // One hosted session.  shared_ptr'd so aggregators can pin a record
  // outside the registry lock; `attached` is atomic so attach/detach work
  // under the reader lock.
  struct Hosted {
    std::shared_ptr<Server> server;
    std::atomic<std::size_t> attached{0};
  };

  /// Looks the name up under the reader lock; nullptr if unknown.
  std::shared_ptr<Hosted> find_hosted(const std::string& name) const;
  /// Pins every hosted record, name-sorted, under one brief reader lock.
  std::vector<std::pair<std::string, std::shared_ptr<Hosted>>> pin_all()
      const;
  static SessionStats stats_of(const std::string& name, const Hosted& hosted);

  mutable std::shared_mutex mutex_;
  std::map<std::string, std::shared_ptr<Hosted>> sessions_;
};

}  // namespace protuner::harmony
