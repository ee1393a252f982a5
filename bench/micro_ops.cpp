// Microkernel benchmarks (google-benchmark) for the HDC substrate: the raw
// host-side throughput of the primitives behind every other experiment.
//
// hdlint: allow-file(wall-clock) — this bench *measures* elapsed time; the
// timings feed bench_out/micro_ops.json, never an encoding decision.
//
// Besides the historical google-benchmark rows, the main() registers one row
// per compiled-and-supported kernel backend (scalar vs AVX2 vs AVX-512 vs
// NEON) for the three packed-word hot loops — pairwise Hamming, SoA
// multi-prototype Hamming (core::PrototypeBlock), and the Accumulator's
// weighted-bundling add_xor — plus batched fault-mask sampling and a whole
// FaultSession inject + restore at D = 2048, and then self-times the same
// loops to emit a machine-readable report at bench_out/micro_ops.json,
// including the headline `hamming_many_speedup_best_vs_scalar` the CI perf
// gate reads.
// Every backend is bit-identical (see core/kernels/kernels.hpp), so the
// rows differ in speed only.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/accumulator.hpp"
#include "core/item_memory.hpp"
#include "core/kernels/kernels.hpp"
#include "core/prototype_block.hpp"
#include "core/stochastic.hpp"
#include "hog/cell_plane.hpp"
#include "hog/gradient.hpp"
#include "hog/hd_hog.hpp"
#include "image/image.hpp"
#include "learn/hdc_model.hpp"
#include "noise/fault_model.hpp"
#include "pipeline/fault_injection.hpp"
#include "pipeline/hdface_pipeline.hpp"

namespace {

using namespace hdface;
using Clock = std::chrono::steady_clock;

void BM_Bind(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  core::Rng rng(1);
  const auto a = core::Hypervector::random(dim, rng);
  const auto b = core::Hypervector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a ^ b);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_Bind)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_Similarity(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  core::Rng rng(2);
  const auto a = core::Hypervector::random(dim, rng);
  const auto b = core::Hypervector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::similarity(a, b));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_Similarity)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_Construct(benchmark::State& state) {
  core::StochasticContext ctx(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.construct(0.37));
  }
}
BENCHMARK(BM_Construct)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_WeightedAverage(benchmark::State& state) {
  core::StochasticContext ctx(static_cast<std::size_t>(state.range(0)), 4);
  const auto a = ctx.construct(0.5);
  const auto b = ctx.construct(-0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.weighted_average(a, b, 0.5));
  }
}
BENCHMARK(BM_WeightedAverage)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_Multiply(benchmark::State& state) {
  core::StochasticContext ctx(static_cast<std::size_t>(state.range(0)), 5);
  const auto a = ctx.construct(0.5);
  const auto b = ctx.construct(-0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.multiply(a, b));
  }
}
BENCHMARK(BM_Multiply)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_Sqrt(benchmark::State& state) {
  core::StochasticContext ctx(static_cast<std::size_t>(state.range(0)), 6);
  const auto v = ctx.construct(0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.sqrt(v));
  }
}
BENCHMARK(BM_Sqrt)->Arg(1024)->Arg(4096);

void BM_Divide(benchmark::State& state) {
  core::StochasticContext ctx(static_cast<std::size_t>(state.range(0)), 7);
  const auto a = ctx.construct(0.3);
  const auto b = ctx.construct(0.8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.divide(a, b));
  }
}
BENCHMARK(BM_Divide)->Arg(1024)->Arg(4096);

void BM_AccumulatorBundle(benchmark::State& state) {
  const std::size_t dim = 4096;
  core::Rng rng(8);
  std::vector<core::Hypervector> items;
  for (int i = 0; i < 64; ++i) items.push_back(core::Hypervector::random(dim, rng));
  for (auto _ : state) {
    core::Accumulator acc(dim);
    for (const auto& v : items) acc.add(v);
    core::Rng tie(9);
    benchmark::DoNotOptimize(acc.threshold(tie));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_AccumulatorBundle);

void BM_ItemMemoryLookup(benchmark::State& state) {
  core::StochasticContext ctx(4096, 10);
  core::LevelItemMemory mem(ctx, 256, 0.0, 1.0);
  double v = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.at_value(v));
    v += 0.001;
    if (v > 1.0) v = 0.0;
  }
}
BENCHMARK(BM_ItemMemoryLookup);

void BM_HdHogPixel(benchmark::State& state) {
  core::StochasticContext ctx(static_cast<std::size_t>(state.range(0)), 11);
  hog::HdHogConfig cfg;
  cfg.hog.cell_size = 4;
  hog::HdHogExtractor hd(ctx, cfg, 16, 16);
  image::Image img(16, 16, 0.5f);
  core::Rng rng(12);
  for (auto& p : img.pixels()) p = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    auto g = hd.pixel_gradient(img, 8, 8);
    benchmark::DoNotOptimize(hd.pixel_magnitude(g));
    benchmark::DoNotOptimize(hd.pixel_bin(g));
  }
}
BENCHMARK(BM_HdHogPixel)->Arg(1024)->Arg(4096);

void BM_HdcPredict(benchmark::State& state) {
  const std::size_t dim = 4096;
  learn::HdcConfig cfg;
  cfg.dim = dim;
  cfg.classes = 7;
  learn::HdcClassifier model(cfg);
  core::Rng rng(13);
  std::vector<core::Hypervector> features;
  std::vector<int> labels;
  for (int i = 0; i < 35; ++i) {
    features.push_back(core::Hypervector::random(dim, rng));
    labels.push_back(i % 7);
  }
  model.fit(features, labels);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(features[0]));
  }
}
BENCHMARK(BM_HdcPredict);

void BM_HdcPredictBinary(benchmark::State& state) {
  const std::size_t dim = 4096;
  learn::HdcConfig cfg;
  cfg.dim = dim;
  cfg.classes = 7;
  learn::HdcClassifier model(cfg);
  core::Rng rng(14);
  std::vector<core::Hypervector> features;
  std::vector<int> labels;
  for (int i = 0; i < 35; ++i) {
    features.push_back(core::Hypervector::random(dim, rng));
    labels.push_back(i % 7);
  }
  model.fit(features, labels);
  const auto protos = model.binary_prototypes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        learn::HdcClassifier::predict_binary(protos, features[0]));
  }
}
BENCHMARK(BM_HdcPredictBinary);

// --- per-backend kernel rows --------------------------------------------------

constexpr std::size_t kKernelDims[] = {1024, 2048, 4096, 10240};
// Prototype lanes for the SoA hamming_many rows (a multi-class associative
// memory; 16 keeps two full cache lines of lanes in flight).
constexpr std::size_t kProtoCount = 16;

std::vector<core::kernels::Backend> usable_backends() {
  std::vector<core::kernels::Backend> out;
  for (const core::kernels::KernelTable* t : core::kernels::compiled_tables()) {
    if (core::kernels::backend_supported(t->backend)) out.push_back(t->backend);
  }
  return out;  // scalar first (compiled_tables() contract)
}

struct KernelFixture {
  core::Hypervector a;
  core::Hypervector b;
  core::PrototypeBlock block;
  std::vector<std::size_t> dists;
  core::Accumulator acc;

  explicit KernelFixture(std::size_t dim)
      : a(core::Hypervector(dim)), b(core::Hypervector(dim)), acc(dim) {
    core::Rng rng(0x3157 + dim);
    a = core::Hypervector::random(dim, rng);
    b = core::Hypervector::random(dim, rng);
    std::vector<core::Hypervector> protos;
    protos.reserve(kProtoCount);
    for (std::size_t c = 0; c < kProtoCount; ++c) {
      protos.push_back(core::Hypervector::random(dim, rng));
    }
    block = core::PrototypeBlock(protos);
    dists.assign(kProtoCount, 0);
  }

  void hamming() { benchmark::DoNotOptimize(core::hamming(a, b)); }
  void hamming_many() {
    block.hamming_many(a, std::span<std::size_t>(dists));
    benchmark::DoNotOptimize(dists.data());
  }
  void add_xor() {
    acc.add_xor(a, b, 0.75);
    benchmark::DoNotOptimize(acc);
  }
};

void register_backend_rows() {
  using core::kernels::Backend;
  for (const Backend backend : usable_backends()) {
    const std::string suffix(core::kernels::backend_name(backend));
    const auto add = [&](const char* kernel, auto member) {
      benchmark::RegisterBenchmark(
          ("BM_Kernel_" + std::string(kernel) + "<" + suffix + ">").c_str(),
          [backend, member](benchmark::State& state) {
            KernelFixture fix(static_cast<std::size_t>(state.range(0)));
            const core::kernels::ScopedBackend forced(backend);
            for (auto _ : state) (fix.*member)();
            state.SetItemsProcessed(state.iterations() * state.range(0));
          })
          ->Arg(1024)->Arg(2048)->Arg(4096)->Arg(10240);
    };
    add("hamming", &KernelFixture::hamming);
    add("hamming_many", &KernelFixture::hamming_many);
    add("add_xor", &KernelFixture::add_xor);
  }
}

// --- fault-injection rows -----------------------------------------------------

// Stored-memory fault injection at the served geometry (D = 2048, 16-px
// window, the load mix's transient rate 2e-3): batched mask sampling alone
// (kFaultMasks patterns per op, the FaultSession chunk size) and one whole
// FaultSession inject + restore over the item memories and the 16 384-entry
// mask pool.
constexpr std::size_t kFaultDim = 2048;
constexpr std::size_t kFaultMasks = 1024;

pipeline::HdFaceConfig fault_config() {
  pipeline::HdFaceConfig c;
  c.dim = kFaultDim;
  c.mode = pipeline::HdFaceMode::kHdHog;
  c.hd_hog_mode = hog::HdHogMode::kDecodeShortcut;
  c.hog.cell_size = 4;
  c.hog.bins = 8;
  return c;
}

struct FaultFixture {
  std::vector<std::uint64_t> seeds;
  noise::FaultPlan plan;
  pipeline::HdFacePipeline pipe;

  FaultFixture() : pipe(fault_config(), 16, 16, 2) {
    plan.model = {noise::FaultKind::kTransientFlip, 2e-3};
    for (std::size_t i = 0; i < kFaultMasks; ++i) {
      seeds.push_back(
          noise::fault_seed(plan.seed, noise::FaultTarget::kMaskPool, i));
    }
    pipe.prepare_concurrent();
  }

  void sample_masks() {
    benchmark::DoNotOptimize(
        noise::sample_fault_masks(plan.model, kFaultDim, seeds).plane.data());
  }
  void inject_restore() {
    pipeline::FaultSession session(pipe, plan);
    session.restore();
  }
};

void register_fault_rows() {
  for (const core::kernels::Backend backend : usable_backends()) {
    const std::string suffix(core::kernels::backend_name(backend));
    const auto add = [&](const char* name, auto member, std::int64_t items) {
      benchmark::RegisterBenchmark(
          (std::string(name) + "<" + suffix + ">").c_str(),
          [backend, member, items](benchmark::State& state) {
            FaultFixture fix;
            const core::kernels::ScopedBackend forced(backend);
            for (auto _ : state) (fix.*member)();
            state.SetItemsProcessed(state.iterations() * items);
          })
          ->Arg(kFaultDim)
          ->Unit(benchmark::kMillisecond);
    };
    add("BM_FaultMasks", &FaultFixture::sample_masks,
        static_cast<std::int64_t>(kFaultMasks));
    add("BM_FaultSessionInjectRestore", &FaultFixture::inject_restore, 1);
  }
}

// --- self-timed JSON report ---------------------------------------------------

// Median-of-three timing with geometric iteration growth until the sample
// window passes 10ms; plenty for loops in the ns–µs range.
template <typename F>
double ns_per_op(F&& f) {
  const auto sample = [&](std::size_t iters) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) f();
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
           static_cast<double>(iters);
  };
  std::size_t iters = 8;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) f();
    const double window =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    if (window >= 1e7 || iters >= (std::size_t{1} << 26)) break;
    iters *= 4;
  }
  double best = sample(iters);
  for (int rep = 0; rep < 2; ++rep) best = std::min(best, sample(iters));
  return best;
}

struct ReportRow {
  std::string kernel;
  std::string backend;
  std::size_t dim;
  double ns;
};

// --- per-stage cell-chain rows ------------------------------------------------

// Cost decomposition of the faithful per-cell encode chain (the plane-encode
// floor bench/plane_encode attacks): the per-pixel hyperspace gradient, the
// magnitude/orientation-bin compare chain, and the per-window level-bind /
// accumulate tail that runs on cached cells — plus the whole-cell cost on
// both batched implementations (reference per-pixel chain vs the fused word
// kernels, bit-identical by contract).
struct CellChainReport {
  double gradient_ns = 0.0;               // per pixel
  double angle_bin_ns = 0.0;              // per pixel (magnitude + bin)
  double level_bind_accumulate_ns = 0.0;  // per window, from a cached plane
  double cell_reference_ns = 0.0;         // per cell, reference chain
  double cell_fused_ns = 0.0;             // per cell, fused batched kernel
  double fused_speedup = 0.0;
};

CellChainReport time_cell_chain(std::size_t dim) {
  core::StochasticContext ctx(dim, 0xC311);
  ctx.warm_pool();
  hog::HdHogConfig cfg;
  cfg.hog.cell_size = 4;
  cfg.hog.bins = 8;
  hog::HdHogExtractor hd(ctx, cfg, 16, 16);
  image::Image img(64, 64);
  core::Rng rng(0xBEEF);
  for (float& p : img.pixels()) p = static_cast<float>(rng.uniform());

  CellChainReport r;
  core::StochasticContext fork = ctx.fork(0x9E11);
  r.gradient_ns = ns_per_op([&] {
    benchmark::DoNotOptimize(hd.pixel_gradient(img, 8, 8, fork));
  });
  const auto grad = hd.pixel_gradient(img, 8, 8, fork);
  r.angle_bin_ns = ns_per_op([&] {
    benchmark::DoNotOptimize(hd.pixel_magnitude(grad, fork));
    benchmark::DoNotOptimize(hd.pixel_bin(grad, fork));
  });

  // Whole-cell raw-value pass, the reference oracle vs the fused kernel, same
  // reseed stream so both time the identical workload (the fused path needs
  // faithful mode and a pooled context).
  const hog::LevelIndexPlane levels =
      hog::build_level_index_plane(img, hd.item_memory());
  std::vector<double> out(cfg.hog.bins);
  r.cell_reference_ns = ns_per_op([&] {
    core::StochasticContext cell_ctx = ctx.fork(0xCE11);
    hd.cell_raw_values_reference(img, 8, 8, cell_ctx, out.data());
    benchmark::DoNotOptimize(out.data());
  });
  r.cell_fused_ns = ns_per_op([&] {
    core::StochasticContext cell_ctx = ctx.fork(0xCE11);
    hd.cell_raw_values(img, &levels, 8, 8, cell_ctx, out.data());
    benchmark::DoNotOptimize(out.data());
  });
  if (r.cell_fused_ns > 0.0) {
    r.fused_speedup = r.cell_reference_ns / r.cell_fused_ns;
  }

  // Per-window tail on a cached plane: vmax normalization, histogram level
  // lookup, key bind + weighted accumulate. Consumes no RNG.
  hog::CellPlane plane = hog::make_cell_plane_geometry(
      img.width(), img.height(), cfg.hog.cell_size, cfg.hog.bins,
      cfg.hog.cell_size, 0);
  for (std::size_t gy = 0; gy < plane.grid_y; ++gy) {
    for (std::size_t gx = 0; gx < plane.grid_x; ++gx) {
      core::StochasticContext cell_ctx =
          ctx.fork(hog::cell_plane_seed(0xC311, 0, gx, gy));
      hd.cell_raw_values(img, &levels, gx * plane.grid_step,
                         gy * plane.grid_step, cell_ctx,
                         plane.mutable_cell(gx, gy));
    }
  }
  r.level_bind_accumulate_ns = ns_per_op([&] {
    benchmark::DoNotOptimize(hd.extract_from_plane(plane, 8, 8, nullptr));
  });
  return r;
}

void write_report(const std::string& path) {
  using core::kernels::Backend;
  const auto backends = usable_backends();
  std::vector<ReportRow> rows;
  // best-vs-scalar speedup per dim for the SoA hamming_many hot loop (the
  // CI perf gate's headline number is the max across dims).
  double headline = 0.0;
  for (const std::size_t dim : kKernelDims) {
    double scalar_many = 0.0;
    double best_many = 0.0;
    for (const Backend backend : backends) {
      KernelFixture fix(dim);
      const core::kernels::ScopedBackend forced(backend);
      const double h = ns_per_op([&] { fix.hamming(); });
      const double m = ns_per_op([&] { fix.hamming_many(); });
      const double x = ns_per_op([&] { fix.add_xor(); });
      const std::string name(core::kernels::backend_name(backend));
      rows.push_back({"hamming", name, dim, h});
      rows.push_back({"hamming_many", name, dim, m});
      rows.push_back({"add_xor", name, dim, x});
      if (backend == Backend::kScalar) scalar_many = m;
      if (best_many == 0.0 || m < best_many) best_many = m;
    }
    if (scalar_many > 0.0 && best_many > 0.0) {
      headline = std::max(headline, scalar_many / best_many);
    }
  }

  // Fault rows: ns per sampled mask, and ns per whole inject + restore.
  {
    FaultFixture fix;
    for (const Backend backend : backends) {
      const core::kernels::ScopedBackend forced(backend);
      const std::string name(core::kernels::backend_name(backend));
      const double masks = ns_per_op([&] { fix.sample_masks(); });
      rows.push_back({"fault_masks", name, kFaultDim,
                      masks / static_cast<double>(kFaultMasks)});
      rows.push_back({"fault_session_inject_restore", name, kFaultDim,
                      ns_per_op([&] { fix.inject_restore(); })});
    }
  }

  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  out << "{\n  \"auto_backend\": \""
      << core::kernels::backend_name(core::kernels::active().backend)
      << "\",\n  \"proto_count\": " << kProtoCount << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"backend\": \""
        << r.backend << "\", \"dim\": " << r.dim << ", \"ns_per_op\": " << r.ns
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  const CellChainReport chain = time_cell_chain(4096);
  out << "  ],\n  \"cell_chain\": {\n"
      << "    \"dim\": 4096,\n"
      << "    \"gradient_ns_per_pixel\": " << chain.gradient_ns << ",\n"
      << "    \"angle_bin_ns_per_pixel\": " << chain.angle_bin_ns << ",\n"
      << "    \"level_bind_accumulate_ns_per_window\": "
      << chain.level_bind_accumulate_ns << ",\n"
      << "    \"cell_reference_ns\": " << chain.cell_reference_ns << ",\n"
      << "    \"cell_fused_ns\": " << chain.cell_fused_ns << ",\n"
      << "    \"fused_speedup\": " << chain.fused_speedup << "\n"
      << "  },\n  \"hamming_many_speedup_best_vs_scalar\": " << headline
      << "\n}\n";
  std::cout << "kernel report: " << path
            << "  hamming_many_speedup_best_vs_scalar=" << headline
            << "  cell_fused_speedup=" << chain.fused_speedup << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  register_backend_rows();
  register_fault_rows();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_report("bench_out/micro_ops.json");
  return 0;
}
