#include "core/system.h"

#include <sstream>
#include <stdexcept>

namespace medea::core {

std::string MedeaConfig::label() const {
  std::ostringstream os;
  os << num_compute_cores << "P_" << l1.size_bytes / 1024 << "k$_"
     << mem::to_string(l1.policy);
  return os.str();
}

void MedeaConfig::validate() const {
  if (noc_width < 1 || noc_height < 1) {
    throw std::invalid_argument("MedeaConfig: NoC dimensions must be >= 1");
  }
  if (num_compute_cores < 1 || num_compute_cores + 1 > num_nodes()) {
    throw std::invalid_argument(
        "MedeaConfig: need 1..(nodes-1) compute cores, got " +
        std::to_string(num_compute_cores) + " on " +
        std::to_string(num_nodes()) + " nodes");
  }
  if (mpmmu_node < 0 || mpmmu_node >= num_nodes()) {
    throw std::invalid_argument("MedeaConfig: MPMMU node out of range");
  }
  if (l1.size_bytes < 1024 || (l1.size_bytes & (l1.size_bytes - 1)) != 0) {
    throw std::invalid_argument(
        "MedeaConfig: L1 size must be a power of two >= 1kB");
  }
  l1.validate("MedeaConfig: l1");
  mpmmu.cache.validate("MedeaConfig: mpmmu.cache");
  router.validate("MedeaConfig: router");
  // The SRCID field width limits the addressable node count (Fig. 5;
  // widened to 8 bits here so 8x8+ tori are representable).
  if (num_nodes() > (1 << noc::FlitFormat::kSrcIdBits)) {
    throw std::invalid_argument(
        "MedeaConfig: NoC larger than the SRCID field allows");
  }
}

namespace {

mem::MemoryMapConfig make_map_config(const MedeaConfig& cfg) {
  mem::MemoryMapConfig m = cfg.memmap;
  m.num_cores = cfg.num_compute_cores;
  return m;
}

// map_ is constructed in the member-init list, so the config must be
// validated before it reaches MemoryMap (whose invariants assume a
// validated core count).
const MedeaConfig& validated(const MedeaConfig& cfg) {
  cfg.validate();
  return cfg;
}

}  // namespace

MedeaSystem::MedeaSystem(const MedeaConfig& cfg)
    : cfg_(validated(cfg)), sched_(cfg.scheduler), map_(make_map_config(cfg)) {
  net_ = std::make_unique<noc::Network>(
      sched_, noc::TorusGeometry(cfg_.noc_width, cfg_.noc_height),
      cfg_.router, cfg_.seed);
  mpmmu_ = std::make_unique<mpmmu::Mpmmu>(sched_, *net_, cfg_.mpmmu_node,
                                          cfg_.num_compute_cores, cfg_.mpmmu,
                                          store_);
  pe::PeConfig pc;
  pc.cache = cfg_.l1;
  pc.arbiter = cfg_.arbiter;
  pc.bridge = cfg_.bridge;
  pc.fp = cfg_.fp;
  pc.shared_uncached = cfg_.shared_uncached;
  cores_.reserve(static_cast<std::size_t>(cfg_.num_compute_cores));
  for (int rank = 0; rank < cfg_.num_compute_cores; ++rank) {
    cores_.push_back(std::make_unique<pe::ProcessingElement>(
        sched_, *net_, node_of_rank(rank), rank, cfg_.mpmmu_node, pc, map_));
  }
  shared_bump_ = map_.shared_base();
}

int MedeaSystem::node_of_rank(int rank) const {
  // Cores occupy consecutive node ids, skipping the MPMMU's node.
  return rank < cfg_.mpmmu_node ? rank : rank + 1;
}

std::vector<int> MedeaSystem::core_nodes() const {
  std::vector<int> nodes;
  nodes.reserve(cores_.size());
  for (int r = 0; r < num_cores(); ++r) nodes.push_back(node_of_rank(r));
  return nodes;
}

bool MedeaSystem::all_programs_done() const {
  for (const auto& c : cores_) {
    if (!c->program_done()) return false;
  }
  return true;
}

sim::Cycle MedeaSystem::run(sim::Cycle max_cycles) {
  const bool completed = sched_.run(max_cycles);
  if (!completed) {
    throw std::runtime_error("MedeaSystem::run: cycle limit " +
                             std::to_string(max_cycles) +
                             " reached — deadlock or livelock suspected (" +
                             std::to_string(num_cores()) + " cores, " +
                             cfg_.label() + ")");
  }
  if (!all_programs_done()) {
    std::ostringstream os;
    os << "MedeaSystem::run: system went idle at cycle " << sched_.now()
       << " with unfinished programs on ranks:";
    for (int r = 0; r < num_cores(); ++r) {
      if (!core(r).program_done()) os << ' ' << r;
    }
    os << " (blocked receive / missing barrier partner?)";
    throw std::runtime_error(os.str());
  }
  return sched_.now();
}

void MedeaSystem::flush_all_caches_backdoor() {
  // MPMMU copies first: any line also dirty in an L1 is newer there, so
  // L1 flushes must land last.
  for (auto& wb : mpmmu_->cache_backdoor().flush_all()) {
    store_.write_line(wb.line_addr, wb.data);
  }
  for (auto& c : cores_) {
    for (auto& wb : c->cache().flush_all()) {
      store_.write_line(wb.line_addr, wb.data);
    }
  }
}

double MedeaSystem::coherent_read_double(mem::Addr a) {
  flush_all_caches_backdoor();
  return store_.read_double(a);
}

std::uint32_t MedeaSystem::coherent_read_word(mem::Addr a) {
  flush_all_caches_backdoor();
  return store_.read_word(a);
}

mem::Addr MedeaSystem::alloc_shared(std::uint32_t bytes, std::uint32_t align) {
  shared_bump_ = (shared_bump_ + align - 1) & ~(align - 1);
  const mem::Addr out = shared_bump_;
  shared_bump_ += bytes;
  if (shared_bump_ > map_.shared_base() + map_.shared_size()) {
    throw std::runtime_error("alloc_shared: shared segment exhausted");
  }
  return out;
}

mem::Addr MedeaSystem::private_addr(int rank, std::uint32_t offset) const {
  if (offset >= map_.private_size()) {
    throw std::out_of_range("private_addr: offset beyond segment");
  }
  return map_.private_base(rank) + offset;
}

sim::StatSet MedeaSystem::aggregate_stats() const {
  sim::StatSet s;
  s.merge(net_->stats());
  s.merge(mpmmu_->stats());
  s.merge(mpmmu_->cache().stats());
  for (const auto& c : cores_) {
    s.merge(c->stats());
    s.merge(c->cache().stats());
  }
  return s;
}

}  // namespace medea::core
