#include "harmony/session_manager.h"

#include <mutex>
#include <utility>

namespace protuner::harmony {

std::shared_ptr<SessionManager::Hosted> SessionManager::find_hosted(
    const std::string& name) const {
  const std::shared_lock lock(mutex_);
  const auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second;
}

std::vector<std::pair<std::string, std::shared_ptr<SessionManager::Hosted>>>
SessionManager::pin_all() const {
  const std::shared_lock lock(mutex_);
  return {sessions_.begin(), sessions_.end()};
}

std::shared_ptr<Server> SessionManager::create(const std::string& name,
                                               core::TuningStrategyPtr
                                                   strategy,
                                               std::size_t clients,
                                               ServerOptions options) {
  // Hosted sessions are telemetry-labelled by their registry name unless
  // the caller picked a label explicitly.
  if (options.session.empty()) options.session = name;
  // Build outside the registry lock: Server's constructor runs the
  // strategy's first proposal, which can be arbitrarily expensive.
  auto server =
      std::make_shared<Server>(std::move(strategy), clients, options);
  auto hosted = std::make_shared<Hosted>();
  hosted->server = std::move(server);
  const std::unique_lock lock(mutex_);
  const auto [it, inserted] = sessions_.try_emplace(name, std::move(hosted));
  if (!inserted) {
    throw SessionError("create: session '" + name + "' already exists");
  }
  return it->second->server;
}

std::shared_ptr<Server> SessionManager::attach(const std::string& name) {
  const std::shared_lock lock(mutex_);
  const auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    throw SessionError("attach: no session named '" + name + "'");
  }
  // Reader lock suffices: remove() takes the writer lock, so its
  // attached==0 check cannot interleave with this increment.
  it->second->attached.fetch_add(1, std::memory_order_relaxed);
  return it->second->server;
}

void SessionManager::detach(const std::string& name) {
  const std::shared_lock lock(mutex_);
  const auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    throw SessionError("detach: no session named '" + name + "'");
  }
  // CAS loop rather than blind decrement: concurrent over-detach must not
  // wrap the count below zero before the error is raised.
  std::atomic<std::size_t>& attached = it->second->attached;
  std::size_t have = attached.load(std::memory_order_relaxed);
  do {
    if (have == 0) {
      throw SessionError("detach: session '" + name + "' is not attached");
    }
  } while (!attached.compare_exchange_weak(have, have - 1,
                                           std::memory_order_relaxed));
}

std::shared_ptr<Server> SessionManager::find(const std::string& name) const {
  const auto hosted = find_hosted(name);
  return hosted == nullptr ? nullptr : hosted->server;
}

bool SessionManager::remove(const std::string& name) {
  const std::unique_lock lock(mutex_);
  const auto it = sessions_.find(name);
  if (it == sessions_.end()) return false;
  // Writer lock excludes attach(), so this check is race-free.
  const std::size_t attached =
      it->second->attached.load(std::memory_order_relaxed);
  if (attached > 0) {
    throw SessionError("remove: session '" + name + "' still has " +
                       std::to_string(attached) + " attachment(s)");
  }
  sessions_.erase(it);
  return true;
}

std::vector<std::string> SessionManager::names() const {
  const auto pinned = pin_all();
  std::vector<std::string> out;
  out.reserve(pinned.size());
  for (const auto& [name, hosted] : pinned) out.push_back(name);
  return out;
}

std::size_t SessionManager::size() const {
  const std::shared_lock lock(mutex_);
  return sessions_.size();
}

SessionManager::SessionStats SessionManager::stats_of(
    const std::string& name, const Hosted& hosted) {
  const Server& server = *hosted.server;
  SessionStats s;
  s.name = name;
  s.strategy = server.strategy_name();
  s.clients = server.clients();
  s.active_ranks = server.active_ranks();
  s.attached = hosted.attached.load(std::memory_order_relaxed);
  s.rounds = server.rounds_completed();
  s.total_time = server.total_time();
  s.converged = server.converged();
  s.convergence_round = server.convergence_round();
  s.best = server.best_point();
  return s;
}

SessionManager::SessionStats SessionManager::stats(
    const std::string& name) const {
  // Pin the record under the reader lock, aggregate after release:
  // the server accessor calls must never extend the registry critical
  // section (they are cheap today, but stats must not be able to block
  // create/remove however slow the session is).
  const auto hosted = find_hosted(name);
  if (hosted == nullptr) {
    throw SessionError("stats: no session named '" + name + "'");
  }
  return stats_of(name, *hosted);
}

std::vector<SessionManager::SessionStats> SessionManager::stats_all() const {
  const auto pinned = pin_all();
  std::vector<SessionStats> out;
  out.reserve(pinned.size());
  for (const auto& [name, hosted] : pinned) {
    out.push_back(stats_of(name, *hosted));
  }
  return out;
}

}  // namespace protuner::harmony
