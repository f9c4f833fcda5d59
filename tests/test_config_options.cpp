/// Tests for configuration options not exercised elsewhere: router
/// eject bandwidth, random tie-breaking, cache associativity sweeps,
/// MPMMU queue sizing, memory-map edge cases and config validation.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/medea.h"
#include "noc/flit.h"
#include "noc/traffic.h"
#include "sim/rng.h"
#include "workload/workload.h"

namespace medea {
namespace {

// ---------------------------------------------------------------------
// Router configuration
// ---------------------------------------------------------------------

TEST(RouterConfig, RandomTieBreakIsSeedDeterministic) {
  auto run_with = [](std::uint64_t seed) {
    sim::Scheduler sched;
    noc::RouterConfig rc;
    rc.random_tie_break = true;
    noc::Network net(sched, noc::TorusGeometry(4, 4), rc, seed);
    noc::TrafficConfig tc;
    tc.pattern = noc::TrafficPattern::kHotspot;
    tc.injection_rate = 0.6;
    tc.flits_per_node = 150;
    tc.seed = 5;
    noc::run_traffic(sched, net, tc);
    return std::pair<sim::Cycle, std::uint64_t>(
        sched.now(), net.stats().get("noc.deflections_total"));
  };
  EXPECT_EQ(run_with(7), run_with(7)) << "same seed, same simulation";
}

TEST(RouterConfig, WiderEjectPortReducesHotspotLatency) {
  auto mean_latency = [](int eject_per_cycle) {
    sim::Scheduler sched;
    noc::RouterConfig rc;
    rc.eject_per_cycle = eject_per_cycle;
    noc::Network net(sched, noc::TorusGeometry(4, 4), rc);
    noc::TrafficConfig tc;
    tc.pattern = noc::TrafficPattern::kHotspot;
    tc.injection_rate = 0.5;
    tc.flits_per_node = 200;
    tc.hotspot_node = 5;
    noc::run_traffic(sched, net, tc);
    return net.stats().acc("noc.latency").mean();
  };
  EXPECT_LT(mean_latency(2), mean_latency(1))
      << "doubling local delivery bandwidth must help a hotspot";
}

TEST(RouterConfig, DeeperInjectQueueAcceptsBurstsSooner) {
  noc::RouterConfig rc;
  rc.inject_queue_depth = 8;
  sim::Scheduler sched;
  noc::Network net(sched, noc::TorusGeometry(4, 4), rc);
  auto& inj = net.inject(0);
  int pushed = 0;
  while (inj.can_push()) {
    noc::Flit f;
    f.dst = {1, 0};
    inj.push(f);
    ++pushed;
  }
  EXPECT_EQ(pushed, 8);
}

// ---------------------------------------------------------------------
// Cache associativity
// ---------------------------------------------------------------------

class CacheWays : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheWays, SameSetLinesSurviveUpToAssociativity) {
  const std::uint32_t ways = GetParam();
  mem::CacheConfig cfg{4 * 1024, mem::kLineBytes, ways,
                       mem::WritePolicy::kWriteBack};
  mem::Cache cache(cfg);
  // `ways` addresses mapping to the same set must coexist.
  const std::uint32_t probe = std::min<std::uint32_t>(ways, 4);
  for (std::uint32_t i = 0; i < probe; ++i) {
    cache.fill_line(0x100 + i * (cfg.num_sets() * mem::kLineBytes), {});
  }
  int resident = 0;
  for (std::uint32_t i = 0; i < probe; ++i) {
    resident += cache.contains(0x100 + i * (cfg.num_sets() * mem::kLineBytes));
  }
  EXPECT_EQ(resident, static_cast<int>(probe))
      << ways << "-way cache must hold " << probe << " same-set lines";
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheWays, ::testing::Values(1u, 2u, 4u));

TEST(CacheWays, DirectMappedConflictsWhereTwoWaySurvives) {
  mem::CacheConfig dm{4 * 1024, mem::kLineBytes, 1,
                      mem::WritePolicy::kWriteBack};
  mem::CacheConfig tw{4 * 1024, mem::kLineBytes, 2,
                      mem::WritePolicy::kWriteBack};
  mem::Cache c1(dm);
  mem::Cache c2(tw);
  const mem::Addr a = 0x0;
  const mem::Addr b = a + dm.size_bytes;  // same set in the DM cache
  c1.fill_line(a, {});
  c1.fill_line(b, {});
  EXPECT_FALSE(c1.contains(a)) << "direct-mapped: b evicted a";
  c2.fill_line(a, {});
  c2.fill_line(a + tw.num_sets() * mem::kLineBytes, {});
  EXPECT_TRUE(c2.contains(a)) << "2-way: both fit";
}

// ---------------------------------------------------------------------
// System config validation and topology options
// ---------------------------------------------------------------------

TEST(ConfigValidation, AcceptsEightByEightTorus) {
  // The 8-bit SRCID field (widened from the paper's 4 bits) makes 8x8+
  // tori representable.
  core::MedeaConfig cfg;
  cfg.noc_width = 8;
  cfg.noc_height = 8;  // 64 nodes <= 256 encodable src ids
  cfg.num_compute_cores = 4;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidation, RejectsOversizedNocForSrcIdField) {
  core::MedeaConfig cfg;
  cfg.noc_width = 17;
  cfg.noc_height = 17;  // 289 nodes > 256 encodable src ids
  cfg.num_compute_cores = 4;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigValidation, AcceptsNonSquareGrids) {
  core::MedeaConfig cfg;
  cfg.noc_width = 2;
  cfg.noc_height = 4;
  cfg.num_compute_cores = 5;
  core::MedeaSystem sys(cfg);
  std::uint32_t got = 0;
  auto prog = [](pe::ProcessingElement& pe, mem::Addr a,
                 std::uint32_t* out) -> sim::Task<> {
    co_await pe.store(a, 9);
    auto r = co_await pe.load(a);
    *out = static_cast<std::uint32_t>(r.value);
  };
  sys.set_program(0, prog(sys.core(0), sys.private_addr(0, 0), &got));
  for (int r = 1; r < 5; ++r) {
    auto idle = [](pe::ProcessingElement& pe) -> sim::Task<> {
      co_await pe.compute(1);
    };
    sys.set_program(r, idle(sys.core(r)));
  }
  sys.run();
  EXPECT_EQ(got, 9u);
}

TEST(ConfigValidation, MpmmuCanSitAnywhere) {
  for (int node : {0, 5, 15}) {
    core::MedeaConfig cfg;
    cfg.num_compute_cores = 3;
    cfg.mpmmu_node = node;
    core::MedeaSystem sys(cfg);
    std::uint32_t got = 0;
    auto prog = [](pe::ProcessingElement& pe, mem::Addr a,
                   std::uint32_t* out) -> sim::Task<> {
      co_await pe.store(a, 33);
      co_await pe.flush_line(a);
      co_await pe.invalidate_line(a);
      auto r = co_await pe.load(a);
      *out = static_cast<std::uint32_t>(r.value);
    };
    auto idle = [](pe::ProcessingElement& pe) -> sim::Task<> {
      co_await pe.compute(1);
    };
    sys.set_program(0, prog(sys.core(0), sys.alloc_shared(64, 16), &got));
    sys.set_program(1, idle(sys.core(1)));
    sys.set_program(2, idle(sys.core(2)));
    sys.run();
    EXPECT_EQ(got, 33u) << "MPMMU at node " << node;
  }
}

TEST(ConfigValidation, FpTimingIsConfigurable) {
  // The paper quotes 60-cycle multiplies without the MulHigh option.
  core::MedeaConfig cfg;
  cfg.num_compute_cores = 1;
  cfg.fp.mul_cycles = 60;
  core::MedeaSystem sys(cfg);
  sim::Cycle cost = 0;
  auto prog = [](pe::ProcessingElement& pe, sim::Cycle* out) -> sim::Task<> {
    co_await pe.compute(1);
    const sim::Cycle t = pe.now();
    co_await pe.fp_mul();
    *out = pe.now() - t;
  };
  sys.set_program(0, prog(sys.core(0), &cost));
  sys.run();
  EXPECT_EQ(cost, 60u);
}

TEST(ConfigValidation, SharedUncachedModeBypassesL1ForShared) {
  core::MedeaConfig cfg;
  cfg.num_compute_cores = 1;
  cfg.shared_uncached = true;
  core::MedeaSystem sys(cfg);
  const mem::Addr a = sys.alloc_shared(64, 16);
  auto prog = [](pe::ProcessingElement& pe, mem::Addr addr) -> sim::Task<> {
    co_await pe.store(addr, 1);
    co_await pe.fence();
    co_await pe.load(addr);
  };
  sys.set_program(0, prog(sys.core(0), a));
  sys.run();
  EXPECT_EQ(sys.core(0).cache().stats().get("cache.read_misses"), 0u);
  EXPECT_EQ(sys.mpmmu().stats().get("mpmmu.single_reads"), 1u);
  EXPECT_EQ(sys.mpmmu().stats().get("mpmmu.single_writes"), 1u);
}

// ---------------------------------------------------------------------
// Memory-map edges
// ---------------------------------------------------------------------

TEST(MemoryMapEdge, ScratchpadWindowIsMapped) {
  mem::MemoryMapConfig c;
  c.num_cores = 2;
  mem::MemoryMap m(c);
  EXPECT_TRUE(m.is_scratchpad(m.scratchpad_base()));
  EXPECT_TRUE(m.is_mapped(m.scratchpad_base()));
  EXPECT_FALSE(m.is_scratchpad(m.scratchpad_base() + m.scratchpad_size()));
  EXPECT_FALSE(m.is_private(m.scratchpad_base()));
  EXPECT_FALSE(m.is_shared(m.scratchpad_base()));
}

TEST(MemoryMapEdge, UnmappedAccessThrows) {
  core::MedeaConfig cfg;
  cfg.num_compute_cores = 1;
  core::MedeaSystem sys(cfg);
  auto prog = [](pe::ProcessingElement& pe) -> sim::Task<> {
    co_await pe.load(0x4000'0000u);  // hole between private and shared
  };
  sys.set_program(0, prog(sys.core(0)));
  EXPECT_THROW(sys.run(), std::runtime_error);
}

TEST(MemoryMapEdge, PrivateAddrRangeChecked) {
  core::MedeaConfig cfg;
  cfg.num_compute_cores = 1;
  core::MedeaSystem sys(cfg);
  EXPECT_THROW(sys.private_addr(0, 1u << 20), std::out_of_range);
}

// ---------------------------------------------------------------------
// Run-request footguns: knobs that used to be silently ignored
// ---------------------------------------------------------------------

TEST(RunRequestFootguns, TraceScaleOnSyntheticWorkloadIsAnError) {
  // Pre-redesign, --trace-scale on a synthetic pattern was a silent
  // no-op.  Engaging the replay section on `uniform` must now throw an
  // error that names the misapplied knob.
  workload::RunRequest req;
  req.replay = workload::ReplayParams{};
  req.replay->trace_scale = 2.0;
  try {
    workload::run_by_name("uniform", req);
    FAIL() << "replay section on a synthetic workload must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("uniform"), std::string::npos) << msg;
    EXPECT_NE(msg.find("trace_scale"), std::string::npos) << msg;
  }
}

TEST(RunRequestFootguns, InjectionRateOnAppWorkloadIsAnError) {
  workload::RunRequest req;
  req.synthetic = workload::SyntheticParams{};
  req.synthetic->injection_rate = 0.5;
  req.app = workload::AppParams{};
  req.app->size = 8;
  try {
    workload::run_by_name("jacobi", req);
    FAIL() << "synthetic section on an app workload must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("jacobi"), std::string::npos) << msg;
    EXPECT_NE(msg.find("injection_rate"), std::string::npos) << msg;
  }
}

TEST(RunRequestFootguns, PhasedMeasurementOnReplayIsAnError) {
  workload::RunRequest req;
  req.replay = workload::ReplayParams{};
  req.replay->trace_path = "/nonexistent.mdtr";
  req.measurement.phased = true;
  EXPECT_THROW(workload::run_by_name("replay", req), std::invalid_argument)
      << "phased warmup/measure/drain only applies to rate-controlled "
         "synthetic traffic";
}

// ---------------------------------------------------------------------
// Flit uid space: per-node uid streams must never wrap
// ---------------------------------------------------------------------

TEST(FlitUidSpace, SyntheticRunBeyond4096NodesIsRejected) {
  // 65x65 = 4225 nodes: the uids of node 4096 used to wrap onto node 0's,
  // so a flit trace silently lost every flit sent from nodes >= 4096.
  workload::RunRequest req;
  req.machine.noc_width = 65;
  req.machine.noc_height = 65;
  req.synthetic = workload::SyntheticParams{};
  req.synthetic->injection_rate = 0.5;
  req.synthetic->flits_per_node = 3;
  try {
    workload::run_by_name("uniform", req);
    FAIL() << "a 4225-node synthetic run must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("noc_width"), std::string::npos) << msg;
  }
  // 64x64 = 4096 nodes is the largest fabric the uid layout addresses.
  req.machine.noc_width = 64;
  req.machine.noc_height = 64;
  EXPECT_NO_THROW(workload::run_by_name("uniform", req));
}

TEST(FlitUidSpace, BudgetBeyondSequenceSpaceIsRejected) {
  workload::RunRequest req;
  req.machine.noc_width = 2;
  req.machine.noc_height = 1;
  req.synthetic = workload::SyntheticParams{};
  req.synthetic->injection_rate = 1.0;
  req.synthetic->flits_per_node = 1 << noc::kFlitUidSeqBits;
  try {
    workload::run_by_name("uniform", req);
    FAIL() << "a budget past the per-node uid sequence must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("flits_per_node"), std::string::npos) << msg;
  }
}

TEST(FlitUidSpaceDeathTest, WrappingStreamAbortsInEveryBuildMode) {
  // Unbounded (phased) runs have no budget to validate up front; the
  // allocator itself must fail hard rather than hand out aliased uids.
  std::uint32_t seq = noc::kMaxFlitUidSeq - 1;
  EXPECT_EQ(noc::next_node_flit_uid(seq, 3),
            (3u << noc::kFlitUidSeqBits) | noc::kMaxFlitUidSeq);
  EXPECT_DEATH(noc::next_node_flit_uid(seq, 3), "");
  std::uint32_t fresh = 0;
  EXPECT_DEATH(noc::next_node_flit_uid(fresh, noc::kMaxFlitUidNodes), "");
}

// ---------------------------------------------------------------------
// Injection-process configuration
// ---------------------------------------------------------------------

TEST(InjectionProcessConfig, RejectsOutOfRangeRates) {
  sim::Xoshiro256 rng(1);
  noc::InjectionSpec spec;
  EXPECT_THROW(noc::make_injection_process(spec, -0.1, rng),
               std::invalid_argument);
  EXPECT_THROW(noc::make_injection_process(spec, 1.5, rng),
               std::invalid_argument);
}

TEST(InjectionProcessConfig, RejectsUnreachableBurstRates) {
  // With on-fraction beta/(alpha+beta) = 0.02/0.07, a mean rate of 0.5
  // would need an in-burst rate of 1.75 flits/cycle — impossible.
  sim::Xoshiro256 rng(1);
  noc::InjectionSpec spec;
  spec.kind = noc::InjectionKind::kOnOff;
  EXPECT_THROW(noc::make_injection_process(spec, 0.5, rng),
               std::invalid_argument);
  spec.burst_beta = 0.0;  // must be in (0, 1]
  EXPECT_THROW(noc::make_injection_process(spec, 0.1, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace medea
