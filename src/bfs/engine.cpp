#include "bfs/engine.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>

#include "baselines/atomic_queue_bfs.hpp"
#include "baselines/comparators.hpp"
#include "baselines/cpu_bfs.hpp"
#include "baselines/cpu_parallel_bfs.hpp"
#include "baselines/status_array_bfs.hpp"
#include "bfs/guarded.hpp"
#include "bfs/program.hpp"
#include "bfs/resilient.hpp"
#include "bfs/spec.hpp"
#include "bfs/telemetry.hpp"
#include "enterprise/program_engine.hpp"
#include "gpusim/device.hpp"

namespace ent::bfs {

namespace {

std::string fmt1(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

std::string device_suffix(const sim::DeviceSpec& spec) {
  return " device=" + spec.name;
}

// The options every Enterprise engine runs with: the config's technique
// toggles plus its shared device and taps.
enterprise::EnterpriseOptions enterprise_options(const EngineConfig& config) {
  enterprise::EnterpriseOptions opt = config.enterprise;
  opt.device = config.device;
  opt.sink = config.sink;
  opt.metrics = config.metrics;
  opt.fault_injector = config.fault_injector;
  opt.device_ordinal = config.device_ordinal;
  opt.checkpointer = config.checkpointer;
  opt.guard = config.guard;
  opt.integrity = config.integrity;
  return opt;
}

}  // namespace

// --- Engine wrapper --------------------------------------------------------

BfsResult Engine::run(graph::vertex_t source) {
  if (sink_ != nullptr) sink_->begin_run(name(), source);
  BfsResult r = do_run(source);
  last_trace_ = r.level_trace;
  if (!impl_emits_levels_) emit_level_events(sink_, r.level_trace);
  publish_run_metrics(metrics_, r);
  if (metrics_ != nullptr) {
    if (const auto hw = counters()) {
      metrics_->gauge("sim.dram_bandwidth_gbs").set(hw->dram_bandwidth_gbs);
      metrics_->gauge("sim.ipc").set(hw->ipc);
      metrics_->gauge("sim.power_w").set(hw->power_w);
      metrics_->gauge("sim.sm_occupancy").set(hw->sm_occupancy);
    }
  }
  if (sink_ != nullptr) sink_->end_run(r.time_ms);
  return r;
}

std::optional<sim::HardwareCounters> Engine::counters() const {
  const sim::Device* dev = device();
  if (dev == nullptr) return std::nullopt;
  return dev->counters();
}

std::unique_ptr<Engine> Engine::clone() const {
  if (spec_graph_ == nullptr) return nullptr;
  return make_engine(spec_name_, *spec_graph_, spec_config_);
}

std::unique_ptr<Engine> Engine::clone(const EngineConfig& config) const {
  if (spec_graph_ == nullptr) return nullptr;
  return make_engine(spec_name_, *spec_graph_, config);
}

std::unique_ptr<Engine> Engine::clone(const graph::Csr& g,
                                      const EngineConfig& config) const {
  if (spec_graph_ == nullptr) return nullptr;
  return make_engine(spec_name_, g, config);
}

// --- Adapters --------------------------------------------------------------

namespace {

class EnterpriseEngine final : public Engine {
 public:
  EnterpriseEngine(const graph::Csr& g, const EngineConfig& config) {
    sink_ = config.sink;
    metrics_ = config.metrics;
    impl_emits_levels_ = true;  // EnterpriseBfs emits spans + level events
    system_ = std::make_unique<enterprise::EnterpriseBfs>(
        g, enterprise_options(config));
  }

  std::string name() const override { return "enterprise"; }

  std::string options_summary() const override {
    const auto& o = system_->options();
    std::string s = std::string("wb=") + (o.workload_balancing ? "on" : "off") +
                    " hc=" + (o.hub_cache ? "on" : "off");
    if (!o.allow_direction_switch) {
      s += " switch=off";
    } else if (o.direction.use_gamma) {
      s += " switch=gamma@" + fmt1(o.direction.gamma_threshold_percent);
    } else {
      s += " switch=alpha@" + fmt1(o.direction.alpha_threshold);
    }
    return s + device_suffix(o.device);
  }

  const sim::Device* device() const override { return &system_->device(); }

  const graph::HubView* hubs() const override { return &system_->hubs(); }

 protected:
  BfsResult do_run(graph::vertex_t source) override {
    return system_->run(source);
  }

 private:
  std::unique_ptr<enterprise::EnterpriseBfs> system_;
};

class MultiGpuEngine final : public Engine {
 public:
  MultiGpuEngine(const graph::Csr& g, const EngineConfig& config) {
    sink_ = config.sink;
    metrics_ = config.metrics;
    impl_emits_levels_ = true;
    system_ = std::make_unique<enterprise::MultiGpuEnterpriseBfs>(
        g, enterprise_options(config), config.multi_gpu);
  }

  std::string name() const override { return "multi-gpu"; }

  std::string options_summary() const override {
    const auto& o = system_->options();
    return "gpus=" + std::to_string(o.num_gpus) + " partition=" +
           (o.partition == enterprise::PartitionPolicy::kEqualVertices
                ? "vertices"
                : "edges") +
           device_suffix(system_->enterprise_options().device);
  }

 protected:
  BfsResult do_run(graph::vertex_t source) override {
    return system_->run(source);
  }

 private:
  std::unique_ptr<enterprise::MultiGpuEnterpriseBfs> system_;
};

class StatusArrayEngine final : public Engine {
 public:
  StatusArrayEngine(const graph::Csr& g, const EngineConfig& config) {
    sink_ = config.sink;
    metrics_ = config.metrics;
    impl_emits_levels_ = true;
    system_ = std::make_unique<baselines::StatusArrayBfs>(
        g, baselines::StatusArrayOptions{
               .device = config.device,
               .sink = config.sink,
               .metrics = config.metrics,
               .fault_injector = config.fault_injector,
               .device_ordinal = config.device_ordinal});
  }

  std::string name() const override { return "bl"; }

  std::string options_summary() const override {
    using baselines::StatusArrayBfs;
    return "granularity=CTA alpha=" + fmt1(StatusArrayBfs::kAlpha) +
           " beta=" + fmt1(StatusArrayBfs::kBeta) +
           device_suffix(system_->options().device);
  }

  const sim::Device* device() const override { return &system_->device(); }

 protected:
  BfsResult do_run(graph::vertex_t source) override {
    return system_->run(source);
  }

 private:
  std::unique_ptr<baselines::StatusArrayBfs> system_;
};

class AtomicQueueEngine final : public Engine {
 public:
  AtomicQueueEngine(const graph::Csr& g, const EngineConfig& config) {
    sink_ = config.sink;
    metrics_ = config.metrics;
    impl_emits_levels_ = true;
    system_ = std::make_unique<baselines::AtomicQueueBfs>(
        g, baselines::AtomicQueueOptions{.device = config.device,
                                         .sink = config.sink,
                                         .metrics = config.metrics});
  }

  std::string name() const override { return "atomic"; }

  std::string options_summary() const override {
    return std::string("granularity=") +
           enterprise::to_string(baselines::AtomicQueueBfs::kGranularity) +
           device_suffix(system_->options().device);
  }

  const sim::Device* device() const override { return &system_->device(); }

 protected:
  BfsResult do_run(graph::vertex_t source) override {
    return system_->run(source);
  }

 private:
  std::unique_ptr<baselines::AtomicQueueBfs> system_;
};

class CpuEngine final : public Engine {
 public:
  CpuEngine(const graph::Csr& g, const EngineConfig& config) : graph_(&g) {
    sink_ = config.sink;
    metrics_ = config.metrics;
  }

  std::string name() const override { return "cpu"; }
  std::string options_summary() const override { return "sequential host"; }

 protected:
  BfsResult do_run(graph::vertex_t source) override {
    return baselines::cpu_bfs(*graph_, source);
  }

 private:
  const graph::Csr* graph_;
};

// `beamer` and `cpu-parallel`: the direction-optimizing host BFS on the
// calling thread alone (NumThreads 1) or on the host pool (0).
template <unsigned NumThreads>
class HostHybridEngine final : public Engine {
 public:
  HostHybridEngine(const graph::Csr& g, const EngineConfig& config)
      : graph_(&g) {
    sink_ = config.sink;
    metrics_ = config.metrics;
  }

  std::string name() const override {
    return NumThreads == 1 ? "beamer" : "cpu-parallel";
  }

  std::string options_summary() const override {
    return NumThreads == 1 ? "serial host" : "pooled host";
  }

 protected:
  BfsResult do_run(graph::vertex_t source) override {
    return baselines::cpu_parallel_bfs(*graph_, source, {NumThreads});
  }

 private:
  const graph::Csr* graph_;
};

// --- vertex-program adapters ------------------------------------------------

// `<base>/<program>` on a simulated base: the ProgramRunner drives the
// enterprise superstep machinery (TS/WB/HC) with the named vertex program,
// on one device (base "enterprise") or a partitioned multi-GPU system
// (base "multi-gpu").
class ProgramEngineAdapter final : public Engine {
 public:
  // `spec` has been semantically validated by make_engine: the program name
  // is registered and its params parse.
  ProgramEngineAdapter(const EngineSpec& spec, const graph::Csr& g,
                       const EngineConfig& config)
      : spec_(spec) {
    const ProgramParams params{spec.params};
    std::unique_ptr<VertexProgram> program =
        make_program(spec.program, g, params);
    enterprise::EnterpriseOptions opt = enterprise_options(config);
    opt.checkpointer = nullptr;  // supersteps do not checkpoint
    sink_ = config.sink;
    metrics_ = config.metrics;
    impl_emits_levels_ = true;  // ProgramRunner emits spans + level events
    unsigned num_devices = 1;
    sim::InterconnectSpec interconnect{};
    std::vector<unsigned> device_ids;
    if (spec.base == "multi-gpu") {
      num_devices = std::max(1u, config.multi_gpu.num_gpus);
      interconnect = config.multi_gpu.interconnect;
      device_ids = config.multi_gpu.device_ids;
    }
    summary_ = "program=" + spec.program;
    for (const auto& [key, value] : spec.params) {
      summary_ += " " + key + "=" + value;
    }
    summary_ += std::string(" wb=") + (opt.workload_balancing ? "on" : "off") +
                " hc=" + (opt.hub_cache ? "on" : "off");
    if (num_devices > 1) summary_ += " gpus=" + std::to_string(num_devices);
    summary_ += device_suffix(opt.device);
    runner_ = std::make_unique<enterprise::ProgramRunner>(
        g, std::move(program), std::move(opt), num_devices, interconnect,
        std::move(device_ids));
  }

  std::string name() const override { return spec_.core(); }
  std::string options_summary() const override { return summary_; }
  const sim::Device* device() const override { return &runner_->device(); }

 protected:
  BfsResult do_run(graph::vertex_t source) override {
    return runner_->run(source);
  }

 private:
  EngineSpec spec_;
  std::string summary_;
  std::unique_ptr<enterprise::ProgramRunner> runner_;
};

// `cpu/<program>`: the independent host reference (Dijkstra, union-find,
// power iteration). The truth source for validation and the floor of the
// degradation ladder / resilient cascade for program workloads.
class HostProgramEngine final : public Engine {
 public:
  HostProgramEngine(const EngineSpec& spec, const graph::Csr& g,
                    const EngineConfig& config)
      : graph_(&g), spec_(spec) {
    sink_ = config.sink;
    metrics_ = config.metrics;
  }

  std::string name() const override { return spec_.core(); }

  std::string options_summary() const override {
    return "program=" + spec_.program + " reference host";
  }

 protected:
  BfsResult do_run(graph::vertex_t source) override {
    return host_reference(spec_.program, *graph_, source,
                          ProgramParams{spec_.params});
  }

 private:
  const graph::Csr* graph_;
  EngineSpec spec_;
};

using ProfileFactory = baselines::ComparatorProfile (*)(
    const sim::DeviceSpec& device);

class ComparatorEngine final : public Engine {
 public:
  ComparatorEngine(const graph::Csr& g, const EngineConfig& config,
                   ProfileFactory make_profile)
      : graph_(&g), profile_(make_profile(config.device)) {
    sink_ = config.sink;
    metrics_ = config.metrics;
  }

  // Registry names are the lowercased profile names ("B40C" -> "b40c").
  std::string name() const override {
    std::string n = profile_.name;
    std::transform(n.begin(), n.end(), n.begin(), [](unsigned char c) {
      return static_cast<char>(std::tolower(c));
    });
    return n;
  }

  std::string options_summary() const override {
    return std::string("comparator model") +
           (profile_.edge_balanced ? " edge-balanced" : "") +
           (profile_.atomic_enqueue ? " atomic-enqueue" : "") +
           (profile_.thread_per_vertex_scan ? " thread-per-vertex" : "") +
           device_suffix(profile_.device);
  }

 protected:
  BfsResult do_run(graph::vertex_t source) override {
    return baselines::comparator_bfs(*graph_, source, profile_);
  }

 private:
  const graph::Csr* graph_;
  baselines::ComparatorProfile profile_;
};

template <ProfileFactory F>
std::unique_ptr<Engine> make_comparator(const graph::Csr& g,
                                        const EngineConfig& config) {
  return std::make_unique<ComparatorEngine>(g, config, F);
}

template <typename T>
std::unique_ptr<Engine> make_adapter(const graph::Csr& g,
                                     const EngineConfig& config) {
  return std::make_unique<T>(g, config);
}

std::map<std::string, EngineFactory>& registry() {
  static std::map<std::string, EngineFactory> map = {
      {"enterprise", &make_adapter<EnterpriseEngine>},
      {"multi-gpu", &make_adapter<MultiGpuEngine>},
      {"bl", &make_adapter<StatusArrayEngine>},
      {"atomic", &make_adapter<AtomicQueueEngine>},
      {"beamer", &make_adapter<HostHybridEngine<1>>},
      {"cpu", &make_adapter<CpuEngine>},
      {"cpu-parallel", &make_adapter<HostHybridEngine<0>>},
      {"b40c", &make_comparator<&baselines::b40c_like>},
      {"gunrock", &make_comparator<&baselines::gunrock_like>},
      {"mapgraph", &make_comparator<&baselines::mapgraph_like>},
      {"graphbig", &make_comparator<&baselines::graphbig_like>},
  };
  return map;
}

// Semantic checks a grammar-valid spec still needs: a registered base, a
// known program on a base that can run one, params only where a program
// consumes them, and an undirected graph for the multi-GPU BFS driver
// (its programs run on either). Program params are validated by actually
// building the program (the factories own the key/value rules).
bool core_valid(const EngineSpec& spec, const graph::Csr& g) {
  if (registry().find(spec.base) == registry().end()) return false;
  if (!spec.has_program()) {
    return spec.params.empty() && !(spec.base == "multi-gpu" && g.directed());
  }
  if (spec.base != "enterprise" && spec.base != "multi-gpu" &&
      spec.base != "cpu") {
    return false;
  }
  return make_program(spec.program, g, ProgramParams{spec.params}) != nullptr;
}

}  // namespace

std::unique_ptr<Engine> make_engine(const std::string& name,
                                    const graph::Csr& g,
                                    const EngineConfig& config) {
  // Every successful construction is stamped with its recipe so
  // Engine::clone() can rebuild an independent instance later.
  const auto stamped = [&](std::unique_ptr<Engine> engine) {
    if (engine != nullptr) {
      engine->spec_name_ = name;
      engine->spec_graph_ = &g;
      engine->spec_config_ = config;
    }
    return engine;
  };
  // The grammar owns the structural rejections the old prefix matching did
  // by hand: empty specs, unknown/duplicated decorators, and the
  // non-canonical `resilient:guarded:<core>` order (guards compose OUTSIDE
  // resilience so a blown deadline propagates instead of being retried as
  // if it were a fault — docs/ARCHITECTURE.md). Callers wanting the typed
  // error parse the spec themselves.
  std::optional<EngineSpec> parsed = EngineSpec::parse(name);
  if (!parsed) return nullptr;
  EngineSpec spec = std::move(*parsed);
  // Bare program names alias the enterprise machinery ("sssp" ==
  // "enterprise/sssp"); the registry itself stays BFS-only.
  if (!spec.has_program() && registry().find(spec.base) == registry().end() &&
      is_program_name(spec.base)) {
    spec.program = spec.base;
    spec.base = "enterprise";
  }
  if (!core_valid(spec, g)) return nullptr;
  if (!spec.decorators.empty()) {
    // Decorators build outermost-first; each wraps the remainder of the
    // chain and recurses through make_engine for its inner engine.
    EngineSpec inner = spec;
    inner.decorators.erase(inner.decorators.begin());
    const std::string inner_name = inner.to_string();
    if (spec.decorators.front() == kGuardedDecorator) {
      return stamped(std::make_unique<GuardedEngine>(inner_name, g, config));
    }
    return stamped(std::make_unique<ResilientEngine>(inner_name, g, config));
  }
  if (spec.has_program()) {
    if (spec.base == "cpu") {
      return stamped(std::make_unique<HostProgramEngine>(spec, g, config));
    }
    return stamped(std::make_unique<ProgramEngineAdapter>(spec, g, config));
  }
  return stamped(registry().find(spec.base)->second(g, config));
}

std::vector<std::string> engine_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, factory] : registry()) names.push_back(name);
  return names;
}

bool register_engine(const std::string& name, EngineFactory factory) {
  // The spec grammar's structural characters (bfs/spec.hpp) can never
  // appear inside a registered base name.
  if (name.empty() || name.find_first_of(":/?&=") != std::string::npos) {
    return false;
  }
  return registry().emplace(name, factory).second;
}

}  // namespace ent::bfs
