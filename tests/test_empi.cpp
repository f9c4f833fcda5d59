/// Tests for the embedded-MPI layer (fragmentation, ordering, barrier).

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/medea.h"

namespace medea {
namespace {

core::MedeaConfig cfg_n(int cores) {
  core::MedeaConfig cfg;
  cfg.num_compute_cores = cores;
  return cfg;
}

sim::Task<> empi_sender(pe::ProcessingElement& pe, int dst,
                        std::vector<std::uint32_t> msg) {
  co_await empi::send(pe, dst, std::move(msg));
}

sim::Task<> empi_receiver(pe::ProcessingElement& pe, int src, int n,
                          std::vector<std::uint32_t>* out) {
  *out = co_await empi::receive(pe, src, n);
}

TEST(Empi, LongMessageFragmentsAndReassembles) {
  core::MedeaSystem sys(cfg_n(2));
  std::vector<std::uint32_t> msg;
  for (std::uint32_t i = 0; i < 37; ++i) msg.push_back(i * 3 + 1);
  std::vector<std::uint32_t> got;
  sys.set_program(0, empi_sender(sys.core(0), sys.node_of_rank(1), msg));
  sys.set_program(1,
                  empi_receiver(sys.core(1), sys.node_of_rank(0), 37, &got));
  sys.run();
  EXPECT_EQ(got, msg);
}

TEST(Empi, EmptyMessageIsAToken) {
  core::MedeaSystem sys(cfg_n(2));
  std::vector<std::uint32_t> got{99};
  sys.set_program(0, empi_sender(sys.core(0), sys.node_of_rank(1), {}));
  sys.set_program(1, empi_receiver(sys.core(1), sys.node_of_rank(0), 0, &got));
  sys.run();
  EXPECT_TRUE(got.empty());
}

TEST(Empi, BackToBackMessagesStayOrdered) {
  core::MedeaSystem sys(cfg_n(2));
  auto sender = [](pe::ProcessingElement& pe, int dst) -> sim::Task<> {
    for (std::uint32_t m = 0; m < 10; ++m) {
      // push_back, not a braced list: GCC 12 miscompiles initializer-list
      // locals in coroutine frames at -O2.
      std::vector<std::uint32_t> msg;
      for (std::uint32_t i = 0; i < 4; ++i) msg.push_back(m * 4 + i);
      co_await empi::send(pe, dst, std::move(msg));
    }
  };
  auto receiver = [](pe::ProcessingElement& pe, int src,
                     std::vector<std::uint32_t>* out) -> sim::Task<> {
    for (int m = 0; m < 10; ++m) {
      auto w = co_await empi::receive(pe, src, 4);
      out->insert(out->end(), w.begin(), w.end());
    }
  };
  std::vector<std::uint32_t> got;
  sys.set_program(0, sender(sys.core(0), sys.node_of_rank(1)));
  sys.set_program(1, receiver(sys.core(1), sys.node_of_rank(0), &got));
  sys.run();
  ASSERT_EQ(got.size(), 40u);
  for (std::uint32_t i = 0; i < 40; ++i) EXPECT_EQ(got[i], i);
}

TEST(Empi, DoublesRoundTrip) {
  core::MedeaSystem sys(cfg_n(2));
  const std::vector<double> vals{1.5, -2.25, 3.125, 1e10, -1e-10};
  std::vector<double> got;
  auto sender = [](pe::ProcessingElement& pe, int dst,
                   std::vector<double> v) -> sim::Task<> {
    co_await empi::send_doubles(pe, dst, v);
  };
  auto receiver = [](pe::ProcessingElement& pe, int src, int n,
                     std::vector<double>* out) -> sim::Task<> {
    *out = co_await empi::receive_doubles(pe, src, n);
  };
  sys.set_program(0, sender(sys.core(0), sys.node_of_rank(1), vals));
  sys.set_program(1, receiver(sys.core(1), sys.node_of_rank(0), 5, &got));
  sys.run();
  ASSERT_EQ(got.size(), vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(got[i], vals[i]);
}

/// Barrier correctness: no member may leave before the last one arrives.
class EmpiBarrier : public ::testing::TestWithParam<int> {};

TEST_P(EmpiBarrier, NobodyLeavesEarly) {
  const int cores = GetParam();
  core::MedeaSystem sys(cfg_n(cores));
  std::vector<sim::Cycle> arrive(static_cast<std::size_t>(cores));
  std::vector<sim::Cycle> leave(static_cast<std::size_t>(cores));
  auto prog = [](pe::ProcessingElement& pe, std::vector<int> members,
                 int rank, sim::Cycle* arr, sim::Cycle* lv) -> sim::Task<> {
    // Ranks arrive at very different times.
    co_await pe.compute(static_cast<std::uint32_t>(1 + rank * 500));
    *arr = pe.now();
    co_await empi::barrier(pe, members);
    *lv = pe.now();
  };
  for (int r = 0; r < cores; ++r) {
    sys.set_program(r, prog(sys.core(r), sys.core_nodes(), r,
                            &arrive[static_cast<std::size_t>(r)],
                            &leave[static_cast<std::size_t>(r)]));
  }
  sys.run();
  const sim::Cycle last_arrival =
      *std::max_element(arrive.begin(), arrive.end());
  for (int r = 0; r < cores; ++r) {
    EXPECT_GE(leave[static_cast<std::size_t>(r)], last_arrival)
        << "rank " << r << " left the barrier before the last arrival";
  }
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, EmpiBarrier,
                         ::testing::Values(2, 3, 5, 8, 15));

TEST(Empi, RepeatedBarriersStaySynchronized) {
  const int cores = 4;
  core::MedeaSystem sys(cfg_n(cores));
  std::vector<int> counters(cores, 0);
  auto prog = [](pe::ProcessingElement& pe, std::vector<int> members,
                 int rank, std::vector<int>* all) -> sim::Task<> {
    for (int it = 0; it < 5; ++it) {
      // Every member must observe all counters equal before incrementing:
      // barrier separation makes the phases strict.
      for (int v : *all) {
        EXPECT_EQ(v, it) << "barrier failed to separate phases";
      }
      co_await pe.compute(static_cast<std::uint32_t>(10 + rank * 37));
      co_await empi::barrier(pe, members);
      (*all)[static_cast<std::size_t>(rank)] += 1;
      co_await empi::barrier(pe, members);
    }
  };
  for (int r = 0; r < cores; ++r) {
    sys.set_program(r, prog(sys.core(r), sys.core_nodes(), r, &counters));
  }
  sys.run();
  for (int v : counters) EXPECT_EQ(v, 5);
}

TEST(Empi, MalformedMessageFlitsThrowInEveryBuildMode) {
  // The TIE lands a message flit straight at its SEQNUM offset and counts
  // credits per peer; a flit past its burst, a duplicate, or a surplus
  // credit return must fail loudly instead of corrupting the landing
  // area or the flow control.
  sim::Scheduler sched;
  noc::Network net(sched, noc::TorusGeometry(2, 2));
  sim::StatSet stats;
  const auto flit = [](noc::FlitSubType sub, std::uint8_t seq,
                       std::uint8_t burst) {
    noc::Flit f;
    f.valid = true;
    f.type = noc::FlitType::kMessage;
    f.subtype = sub;
    f.seq_num = seq;
    f.burst_size = burst;
    f.src_id = 1;
    return f;
  };

  pe::TieInterface past_burst(net, 0, stats);
  EXPECT_THROW(past_burst.on_rx_flit(flit(noc::kMpData, 2, 1)),
               std::runtime_error);  // offset 2 of a 2-word packet
  EXPECT_THROW(past_burst.on_rx_flit(flit(noc::kMpData, 0, 4)),
               std::runtime_error);  // 5 words: past the 2-bit BURST field

  pe::TieInterface dup(net, 0, stats);
  EXPECT_FALSE(dup.on_rx_flit(flit(noc::kMpData, 1, 1)));
  EXPECT_THROW(dup.on_rx_flit(flit(noc::kMpData, 1, 1)), std::runtime_error);
  EXPECT_TRUE(dup.on_rx_flit(flit(noc::kMpData, 0, 1)));  // slot intact

  pe::TieInterface credits(net, 0, stats);
  const std::uint32_t word = 7;
  credits.start_send(1, &word, 1);
  EXPECT_FALSE(credits.on_rx_flit(flit(noc::FlitSubType::kAck, 0, 0)));
  EXPECT_THROW(credits.on_rx_flit(flit(noc::FlitSubType::kAck, 0, 0)),
               std::runtime_error);  // more credits back than were spent
}

}  // namespace
}  // namespace medea
