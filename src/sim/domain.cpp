#include "sim/domain.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

namespace medea::sim {

namespace {
/// Runaway guard: more shards than this is never useful for the fabric
/// sizes this model targets, and each shard is a full scheduler.
constexpr int kMaxShards = 64;
}  // namespace

int SimDomain::resolve_shards(const SchedulerConfig& cfg, int max_useful) {
  if (cfg.queue != SchedulerConfig::EventQueue::kShardedCalendar) return 1;
  int n = cfg.num_shards != 0
              ? static_cast<int>(cfg.num_shards)
              : static_cast<int>(std::thread::hardware_concurrency());
  if (n < 1) n = 1;
  if (max_useful > 0) n = std::min(n, max_useful);
  return std::min(n, kMaxShards);
}

SimDomain::SimDomain(const SchedulerConfig& cfg, int max_useful_shards)
    : cfg_(cfg) {
  const int n = resolve_shards(cfg_, max_useful_shards);
  SchedulerConfig shard_cfg = cfg_;
  if (shard_cfg.queue == SchedulerConfig::EventQueue::kShardedCalendar) {
    shard_cfg.queue = SchedulerConfig::EventQueue::kCalendar;
  }
  shards_.reserve(static_cast<std::size_t>(n));
  drains_.resize(static_cast<std::size_t>(n));
  local_next_.resize(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<Scheduler>(shard_cfg));
    // One construction-order counter across all shards: the canonical
    // within-cycle dispatch key is global, so per-shard event streams
    // concatenate into exactly the single-kernel order.
    shards_.back()->adopt_order_counter(&order_counter_);
  }
}

SimDomain::~SimDomain() = default;

bool SimDomain::idle() const {
  for (const auto& s : shards_) {
    if (!s->idle()) return false;
  }
  return true;
}

void SimDomain::set_cycle_hook(CycleHook* hook, Cycle first) {
  // Registration-time API: no worker thread is running, so the caller
  // exclusively owns both the tables and the serial-phase state.
  setup_.assert_held();
  serial_.assert_held();
  if (!sharded()) {
    shards_[0]->set_cycle_hook(hook, first);
    return;
  }
  hook_ = hook;
  hook_next_ = hook == nullptr ? kNeverCycle : first;
}

void SimDomain::add_shard_drain(int s, std::function<void(Cycle)> fn) {
  setup_.assert_held();  // registration time, before run()
  drains_[static_cast<std::size_t>(s)].push_back(std::move(fn));
}

void SimDomain::add_cycle_end(std::function<void(Cycle)> fn) {
  setup_.assert_held();  // registration time, before run()
  cycle_end_.push_back(std::move(fn));
}

void SimDomain::add_pre_sample(std::function<void()> fn) {
  setup_.assert_held();  // registration time, before run()
  pre_sample_.push_back(std::move(fn));
}

#define MEDEA_DOMAIN_SUM(counter)                       \
  std::uint64_t total = 0;                              \
  for (const auto& s : shards_) total += s->counter();  \
  return total

std::uint64_t SimDomain::wake_requests() const {
  MEDEA_DOMAIN_SUM(wake_requests);
}
std::uint64_t SimDomain::wakes_deduped() const {
  MEDEA_DOMAIN_SUM(wakes_deduped);
}
std::uint64_t SimDomain::bucket_pushes() const {
  MEDEA_DOMAIN_SUM(bucket_pushes);
}
std::uint64_t SimDomain::overflow_pushes() const {
  MEDEA_DOMAIN_SUM(overflow_pushes);
}
std::uint64_t SimDomain::commit_pushes() const {
  MEDEA_DOMAIN_SUM(commit_pushes);
}
std::uint64_t SimDomain::commits_deduped() const {
  MEDEA_DOMAIN_SUM(commits_deduped);
}
std::size_t SimDomain::queued() const { MEDEA_DOMAIN_SUM(queued); }

#undef MEDEA_DOMAIN_SUM

void SimDomain::barrier_wait(std::uint64_t* wait_ns) {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  const auto n = static_cast<std::uint32_t>(shards_.size());
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) == n - 1) {
    // Last arrival: reset the count and release the generation.
    arrived_.store(0, std::memory_order_relaxed);
    generation_.store(gen + 1, std::memory_order_release);
    return;
  }
  // Host-time metric only (barrier_wait_ns, the load-imbalance gauge):
  // never feeds simulated state.
  const auto spin_start =
      std::chrono::steady_clock::now();  // lint:allow(banned-time-source)
  std::uint32_t spins = 0;
  while (generation_.load(std::memory_order_acquire) == gen) {
    if (++spins >= 4096) {
      spins = 0;
      std::this_thread::yield();
    }
  }
  *wait_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() -  // lint:allow(banned-time-source)
          spin_start)
          .count());
}

bool SimDomain::run(Cycle limit) {
  if (!sharded()) return shards_[0]->run(limit);
  return run_sharded(limit);
}

void SimDomain::run_or_throw(Cycle limit) {
  if (!run(limit)) {
    throw std::runtime_error(
        "SimDomain::run_or_throw: cycle limit " + std::to_string(limit) +
        " reached at cycle " + std::to_string(now()) +
        " without the system going idle (deadlock or livelock?)");
  }
}

bool SimDomain::run_sharded(Cycle limit) {
  // No worker is running yet: the caller owns the serial state.
  serial_.assert_held();
  stop_flag_ = false;
  for (auto& s : shards_) s->reset_stop();
  const int n = num_shards();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(n - 1));
  for (int s = 1; s < n; ++s) {
    workers.emplace_back([this, s, limit] { shard_loop(s, limit); });
  }
  const bool went_idle = shard_loop(0, limit);
  for (auto& w : workers) w.join();
  return went_idle;
}

bool SimDomain::shard_loop(int s, Cycle limit) {
  Scheduler& sch = shard(s);
  // The registration tables were frozen before the workers spawned;
  // every shard reads them (shared) for the whole run.
  setup_.assert_shared();
  auto& my_drains = drains_[static_cast<std::size_t>(s)];
  std::uint64_t wait_ns = 0;
  bool went_idle = true;

  for (;;) {
    // --- publish phase: post this shard's next-event time ------------
    // Each shard exclusively owns its own padded slot here; the token's
    // granularity is the whole slot vector, acquired around the
    // single-slot write.
    publish_.acquire();
    local_next_[static_cast<std::size_t>(s)].value = sch.next_event_cycle();
    publish_.release();
    barrier_wait(&wait_ns);

    // Every shard computes the same min over the published times (the
    // decision is replicated, not communicated, so no extra barrier).
    // The slots are stable until the next publish window, so this
    // shard's dispatch-or-fast-forward decision is read here too.
    publish_.acquire_shared();
    Cycle t = kNeverCycle;
    for (const PaddedCycle& c : local_next_) t = std::min(t, c.value);
    const bool due = local_next_[static_cast<std::size_t>(s)].value == t;
    publish_.release_shared();

    // --- serial phase (shard 0 only) ----------------------------------
    if (s == 0) {
      serial_.acquire();
      // End-of-cycle work owed for the previous global cycle: flush the
      // cross-shard observer buffers in shard order — which, with
      // contiguous node bands, is exactly the canonical global event
      // order — while every other shard is parked at the next barrier.
      if (pending_flush_ != kNeverCycle) {
        for (auto& fn : cycle_end_) fn(pending_flush_);
        pending_flush_ = kNeverCycle;
      }
      for (const auto& sh : shards_) {
        if (sh->stop_requested()) stop_flag_ = true;
      }
      if (!stop_flag_ && t != kNeverCycle && t <= limit) {
        now_ = t;
        ++active_cycles_;
        if (t >= hook_next_) [[unlikely]] {
          for (auto& fn : pre_sample_) fn();
          hook_next_ = hook_->on_cycle(t);
        }
        if (!cycle_end_.empty()) pending_flush_ = t;
      }
      serial_.release();
    }
    barrier_wait(&wait_ns);

    // All shards take the same exit, on the same iteration.  The serial
    // state is read-stable until shard 0's next serial window.
    serial_.acquire_shared();
    const bool stopped = stop_flag_;
    serial_.release_shared();
    if (t == kNeverCycle || stopped) break;  // idle (or stopped): true
    if (t > limit) {
      went_idle = false;
      break;
    }

    // --- parallel phase: dispatch or fast-forward, then drain ---------
    if (due) {
      sch.dispatch_cycle(t);
    } else {
      sch.fast_forward(t);
    }
    barrier_wait(&wait_ns);
    // Drain hooks: wake this shard's consumers of seam links neighbor
    // shards wrote this cycle (visible at t+1, like any link write).
    for (auto& fn : my_drains) fn(t);
  }

  barrier_wait_ns_.fetch_add(wait_ns, std::memory_order_relaxed);
  return went_idle;
}

}  // namespace medea::sim
