#pragma once

// The benchmark's workloads and the per-layer metric rows they share.

#include <map>
#include <string>
#include <vector>

#include "pipeline/hdface_pipeline.hpp"
#include "support.hpp"

namespace e2e {

// sparse_scan (dense == false) and dense_pyramid (dense == true).
RunResult run_scan(const RunOptions& opt, bool dense);

// served_mix: DetectionServer fed open loop with RequestFactory's default mix.
RunResult run_served(const RunOptions& opt);

// Closed-loop saturation throughput of the served_mix server configuration,
// requests/s — how the served_mix offered rate was chosen.
double measure_served_capacity(const RunOptions& opt);

// The per-layer rows every workload prints, in BENCHMARK.json order, with
// their units. A row the workload's path never exercises reports 0.
std::vector<Metric> layer_rows(const std::map<std::string, double>& values);

// Adds host.ref_ms / host.ref_spread from the probe's samples.
void add_host_rows(std::map<std::string, double>& values, const HostProbe& probe);

// Times the model-level kernels from outside on encoded windows: full-D
// scoring (HdcClassifier::scores, us per window) and the batched Hamming
// kernel (PrototypeBlock::hamming_many, ns per call).
void add_scoring_rows(std::map<std::string, double>& values,
                      hdface::pipeline::HdFacePipeline& pipeline,
                      const std::vector<hdface::image::Image>& windows);

}  // namespace e2e
