#include "sim/scheduler.h"

#include <algorithm>
#include <bit>
#include <ostream>
#include <stdexcept>

namespace medea::sim {

namespace {
/// Spill nodes are allocated in blocks and recycled forever; a block of
/// 64 keeps the steady-state allocation count at "a handful per run".
constexpr std::size_t kNodeBlockSize = 64;
/// Order-table slots reserved when a scheduler is built: enough for a
/// full-system model without regrowth, 4 kB plus two 64-byte bitmaps.
constexpr std::size_t kInitialOrderSlots = 512;
}  // namespace

Component::Component(Scheduler& sched, std::string name)
    : sched_(sched),
      name_(std::move(name)),
      order_(sched.next_component_order()) {
  hook_.comp = this;
  sched_.register_component(*this);
}

Component::~Component() { sched_.by_order_[order_] = nullptr; }

Scheduler::Scheduler(const SchedulerConfig& cfg) : cfg_(cfg) {
  if (cfg_.ring_bits == 0) {
    // Auto-size from the caller's horizon hint: the smallest ring
    // covering twice the hint (slack for jitter), the former fixed
    // default when no hint was given.
    cfg_.ring_bits =
        cfg_.horizon_hint == 0
            ? 10
            : static_cast<std::uint32_t>(std::bit_width(cfg_.horizon_hint)) + 1;
  }
  cfg_.ring_bits = std::clamp<std::uint32_t>(cfg_.ring_bits, 6, 20);
  // A sharded config reaching a plain Scheduler is the single-shard
  // fallback (full-system apps, the XY baseline, shard schedulers
  // themselves): it runs the calendar kernel.
  use_calendar_ = cfg_.queue != SchedulerConfig::EventQueue::kBinaryHeap;
  if (use_calendar_) {
    ring_bits_chosen_ = cfg_.ring_bits;
    const std::size_t ring_size = std::size_t{1} << cfg_.ring_bits;
    ring_mask_ = ring_size - 1;
    ring_.resize(ring_size);
    ring_bitmap_.resize(ring_size / 64, 0);
  }
  by_order_.resize(kInitialOrderSlots, nullptr);
  for (auto& bits : near_) bits.resize(kInitialOrderSlots / 64, 0);
}

void Scheduler::register_component(Component& c) {
  if (c.order_ >= by_order_.size()) {
    // Shards of one SimDomain share the order counter, so a shard's table
    // spans the global order; grow by doubling to keep registration O(1).
    std::size_t slots = by_order_.size() * 2;
    while (slots <= c.order_) slots *= 2;
    by_order_.resize(slots, nullptr);
    for (auto& bits : near_) bits.resize(slots / 64, 0);
  }
  by_order_[c.order_] = &c;
}

std::uint32_t Scheduler::suggested_ring_bits(double coverage) const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : horizon_hist_) total += n;
  if (total == 0) return 6;
  const auto target = static_cast<std::uint64_t>(
      coverage * static_cast<double>(total));
  std::uint64_t seen = 0;
  for (std::uint32_t b = 0; b < horizon_hist_.size(); ++b) {
    seen += horizon_hist_[b];
    if (seen >= target) return std::clamp<std::uint32_t>(b, 6, 20);
  }
  return 20;
}

Scheduler::~Scheduler() = default;

detail::WakeNode* Scheduler::acquire_node(Component& c) {
  // Fast path: the component's embedded hook, free whenever the
  // component has no other wake pending in the ring.
  if (!c.hook_.active) {
    c.hook_.active = true;
    c.hook_.next = nullptr;
    return &c.hook_;
  }
  if (free_nodes_ == nullptr) {
    auto block = std::make_unique<detail::WakeNode[]>(kNodeBlockSize);
    for (std::size_t i = 0; i < kNodeBlockSize; ++i) {
      block[i].pooled = true;
      block[i].next = free_nodes_;
      free_nodes_ = &block[i];
    }
    node_blocks_.push_back(std::move(block));
  }
  detail::WakeNode* n = free_nodes_;
  free_nodes_ = n->next;
  n->comp = &c;
  n->next = nullptr;
  return n;
}

void Scheduler::release_node(detail::WakeNode* n) {
  if (n->pooled) {
    n->next = free_nodes_;
    free_nodes_ = n;
  } else {
    n->active = false;
  }
}

void Scheduler::push_bucket(Component& c, Cycle at) {
  detail::WakeNode* n = acquire_node(c);
  const std::size_t slot = static_cast<std::size_t>(at) & ring_mask_;
  Bucket& b = ring_[slot];
  if (b.tail == nullptr) {
    b.head = b.tail = n;
    ring_bitmap_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  } else {
    b.tail->next = n;
    b.tail = n;
  }
  ++ring_count_;
  ++bucket_pushes_;
}

void Scheduler::push_heap(Component& c, Cycle at) {
  heap_.push(Event{at, seq_++, &c});
  ++overflow_pushes_;
}

void Scheduler::wake_slow(Component& c, Cycle at) {
  assert(at != kNeverCycle);
  if (dispatching_) {
    // Synchronous design: nothing scheduled mid-cycle may land in the
    // same cycle, or tick ordering would become observable.
    assert(at > now_ && "wake_at during dispatch must target a future cycle");
  } else {
    assert(at >= now_);
  }
  ++wake_requests_;
  // Push-time dedup: if this component already has a queued entry for
  // the same strictly-future cycle, skip the push entirely.  The stamp
  // is sound because an entry for cycle `at` leaves its queue only once
  // now_ reaches `at`, after which every new wake must target a cycle
  // > now_ >= at and can never alias the stale stamp.  `at == now_`
  // wakes (legal between runs) bypass the dedup: their entry may
  // already have been consumed this cycle, so skipping could lose the
  // wake — the pop-time last_ticked_ guard handles those instead.
  if (at > now_ && c.last_wake_cycle_ == at) {
    ++wakes_deduped_;
    return;
  }
  c.last_wake_cycle_ = at;
  // Wake-horizon histogram (ring auto-sizing calibration): one
  // bit_width per surviving push, far off the critical path next to the
  // queue insert below.
  ++horizon_hist_[std::bit_width(at - now_)];
  // Route by horizon: `now` and `now+1` set a near-tier bit, wakes
  // within the calendar ring become an O(1) bucket append; anything
  // further out (or the whole load, under the legacy kernel) goes
  // through the binary heap.
  if (use_calendar_ && at - now_ <= 1) {
    push_near(c, at);
  } else if (use_calendar_ && at - now_ <= ring_mask_) {
    push_bucket(c, at);
  } else {
    push_heap(c, at);
  }
}

Cycle Scheduler::next_ring_cycle() const {
  if (ring_count_ == 0) return kNeverCycle;
  // Every linked node targets a cycle in [now_, now_ + ring size), so
  // the set bit with the smallest circular distance from now_'s slot is
  // the next event.  Scan words outward from that slot; the bits below
  // it in the starting word belong to the wrapped far end and are
  // checked last.
  const std::size_t nwords = ring_bitmap_.size();
  const std::size_t base = static_cast<std::size_t>(now_ & ring_mask_);
  const std::size_t w0 = base >> 6;
  const unsigned shift = static_cast<unsigned>(base & 63);
  const auto cycle_of = [&](std::size_t bit) {
    return now_ + ((bit - base) & ring_mask_);
  };
  std::uint64_t word = ring_bitmap_[w0] & (~std::uint64_t{0} << shift);
  if (word != 0) {
    return cycle_of((w0 << 6) +
                    static_cast<std::size_t>(std::countr_zero(word)));
  }
  for (std::size_t k = 1; k < nwords; ++k) {
    const std::size_t w = (w0 + k) & (nwords - 1);
    if (ring_bitmap_[w] != 0) {
      return cycle_of(
          (w << 6) +
          static_cast<std::size_t>(std::countr_zero(ring_bitmap_[w])));
    }
  }
  if (shift != 0) {
    word = ring_bitmap_[w0] & ~(~std::uint64_t{0} << shift);
    if (word != 0) {
      return cycle_of((w0 << 6) +
                      static_cast<std::size_t>(std::countr_zero(word)));
    }
  }
  assert(false && "ring_count_ > 0 but occupancy bitmap is empty");
  return kNeverCycle;
}

void Scheduler::drain_bucket(Cycle t) {
  const std::size_t slot = static_cast<std::size_t>(t) & ring_mask_;
  Bucket& b = ring_[slot];
  detail::WakeNode* n = b.head;
  if (n == nullptr) return;
  b.head = b.tail = nullptr;
  ring_bitmap_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  while (n != nullptr) {
    mark_near(t, n->comp->order_);
    detail::WakeNode* next = n->next;
    release_node(n);
    --ring_count_;
    n = next;
  }
}

void Scheduler::dispatch_cycle(Cycle t) {
  now_ = t;
  ++active_cycles_;

  if (!use_calendar_) {
    dispatch_sorted(t);
  } else {
    // Fold t's ring bucket and heap entries into t's near bitmap; its
    // set bits are then exactly the components due at t.
    while (!heap_.empty() && heap_.top().cycle == t) {
      mark_near(t, heap_.top().component->order_);
      heap_.pop();
    }
    drain_bucket(t);
    near_count_[t & 1] = 0;

    // Walk the set bits in ascending order, i.e. canonical construction
    // order.  Ticks wake only t+1 (the other bitmap) or later (ring,
    // heap), so each word can be cleared before its bits are ticked.
    // Indices, not iterators: a tick that builds a component may grow
    // the table and the bitmaps.
    auto& bits = near_[t & 1];
    dispatching_ = true;
    for (std::size_t w = 0; w < bits.size(); ++w) {
      std::uint64_t word = bits[w];
      if (word == 0) continue;
      bits[w] = 0;
      do {
        Component* c = by_order_[(w << 6) |
                                 static_cast<std::size_t>(
                                     std::countr_zero(word))];
        word &= word - 1;
        assert(c != nullptr && "woken component was destroyed");
        // Pop-time dedup: a component woken for now() between runs
        // after it already ticked this cycle stays ticked once.
        if (c->last_ticked_ != t) {
          c->last_ticked_ = t;
          c->tick(t);
        }
      } while (word != 0);
    }
    dispatching_ = false;
  }
}

void Scheduler::dispatch_sorted(Cycle t) {
  // Gather every component woken for this cycle, then dispatch.  The
  // gather/dispatch split guarantees that wake_at() calls made inside
  // tick() (which must target t+1 or later) never join this batch.
  dispatch_batch_.clear();
  while (!heap_.empty() && heap_.top().cycle == t) {
    Component* c = heap_.top().component;
    heap_.pop();
    if (c->last_ticked_ == t) continue;  // dedup same-cycle wakes
    c->last_ticked_ = t;
    dispatch_batch_.push_back(c);
  }

  // Canonical within-cycle order: sort by component construction
  // sequence (see the file comment in scheduler.h).
  std::sort(dispatch_batch_.begin(), dispatch_batch_.end(),
            [](const Component* a, const Component* b) {
              return a->order() < b->order();
            });

  dispatching_ = true;
  for (Component* c : dispatch_batch_) c->tick(t);
  dispatching_ = false;
}

bool Scheduler::run(Cycle limit) {
  stop_requested_ = false;
  while (!stop_requested_) {
    const Cycle t = next_event_cycle();
    if (t == kNeverCycle) break;  // both tiers drained: idle
    if (t > limit) return false;
    now_ = t;

    // Telemetry sampling point: fires before any component ticks, so
    // the hook observes end-of-previous-cycle state.  Disabled hooks
    // keep hook_next_ at kNeverCycle and cost only this compare.
    if (t >= hook_next_) [[unlikely]] {
      hook_next_ = hook_->on_cycle(t);
    }

    dispatch_cycle(t);
  }
  return true;
}

void Scheduler::run_or_throw(Cycle limit) {
  if (!run(limit)) {
    throw std::runtime_error(
        "Scheduler::run_or_throw: cycle limit " + std::to_string(limit) +
        " reached at cycle " + std::to_string(now_) +
        " without the system going idle (deadlock or livelock?)");
  }
}

}  // namespace medea::sim
