#pragma once

// Detection-as-a-service: a long-running serving layer over api::Detector.
//
// The paper's claim is robustness under heavy, noisy, concurrent load; every
// bench before this layer was one-shot. DetectionServer turns the detector
// into a service:
//
//   submit() ── admission ──► bounded MPMC queue ──► worker pool ──► future
//                  │                                     │
//                  ├─ validate(options)  → kInvalidOptions (typed, no queue)
//                  ├─ per-tenant cap     → kTenantOverLimit
//                  ├─ queue at capacity  → kQueueFull  (backpressure)
//                  └─ shutting down      → kShutdown
//
// Every rejection is a typed api::Error returned synchronously — a rejected
// request never consumes queue space or a worker. Admitted requests resolve
// through a std::future with an api::Outcome<api::Response>, so a request
// that fails *during* execution (kInternal) still resolves its future; a
// worker never dies on input.
//
// Latency accounting: each worker owns a shard of three
// util::LatencyHistogram (queue-wait, execute, end-to-end) plus completion
// counters; stats() merges the shards. Merging is exact (see
// latency_histogram.hpp), so p50/p99/p999 are identical no matter how many
// workers served the load or in which order shards merge.
//
// Queue-accounting conservation (the invariant the serving CI job gates
// on): every submit() lands in exactly one of {admitted, rejected_*}, and
// every admitted request in exactly one of {completed, failed, in flight}.
// ServerStats::conserved() checks it; shutdown() drains the queue, so after
// shutdown in_flight is 0 and admitted == completed + failed.
//
// Determinism: detection results ride the engine's bit-identical contract —
// a served request returns exactly the detections Detector::detect would
// return for the same (scene, options), at any worker count and any
// interleaving (the serving bench verifies this per request). Latency
// numbers are of course timing-dependent; only the *results* are not.
//
// Fault-plan requests mutate shared pipeline storage for the duration of
// their scan (pipeline::FaultSession, copy-on-inject + restore-verified);
// the server runs them under an exclusive model lock while clean requests
// share it, so a faulted query can never corrupt a concurrent clean scan.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "api/detector.hpp"
#include "pipeline/cascade_types.hpp"
#include "pipeline/encode_mode.hpp"
#include "util/bounded_queue.hpp"
#include "util/latency_histogram.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace hdface::serve {

struct ServerConfig {
  // Bounded request-queue depth; submissions beyond it are rejected with
  // kQueueFull (clamped to >= 1).
  std::size_t queue_depth = 64;
  // Worker threads executing requests; 0 = hardware concurrency. Ignored
  // when start_workers is false.
  std::size_t workers = 0;
  // Per-tenant in-flight cap (queued + executing). 0 = unlimited.
  std::size_t per_tenant_inflight = 0;
  // Engine threads *inside* one request's scan. Serving keeps this at 1:
  // under load, request-level parallelism across workers beats intra-scan
  // parallelism, and results are bit-identical at any setting.
  std::size_t engine_threads = 1;
  // false: start no worker threads; admitted requests queue until step()
  // executes them on the calling thread. This is the deterministic mode the
  // admission-control tests drive — with no concurrent consumer, rejection
  // counts under a fixed submission schedule are exact.
  bool start_workers = true;
};

// Monotonic admission/completion counters. Every field only increments;
// all are updated under one admission lock, so a stats() snapshot is
// internally consistent.
struct Counters {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_tenant = 0;
  std::uint64_t rejected_invalid = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t completed = 0;  // future resolved with an ok Outcome
  std::uint64_t failed = 0;     // future resolved with an error Outcome

  std::uint64_t rejected_total() const {
    return rejected_queue_full + rejected_tenant + rejected_invalid +
           rejected_shutdown;
  }
};

struct ServerStats {
  Counters counters;
  std::size_t queue_depth = 0;  // snapshot at stats() time
  std::size_t queue_capacity = 0;
  std::size_t in_flight = 0;  // admitted, not yet resolved (queued + executing)
  std::size_t workers = 0;
  // Merged across worker shards; exact at any worker count and merge order.
  util::LatencyHistogram queue_wait;
  util::LatencyHistogram execute;
  util::LatencyHistogram e2e;
  // Fleet-wide scan accounting, merged across worker shards exactly like the
  // histograms (integer adds commute — totals are identical at any worker
  // count and merge order). encode_cache carries the demand-set behavior the
  // plane-encode work gates on: cells_computed / cells_total is the
  // materialized fraction, cells_forced_prescreen the prescreen driver's
  // share, 1 − cells_computed / ensure_checks the plane hit rate. cascade
  // carries per-stage entered/rejected plus prescreen counters. Both stay
  // zero when no served request ran the corresponding mode.
  pipeline::EncodeCacheStats encode_cache;
  pipeline::CascadeStats cascade;

  // Queue-accounting conservation: no request dropped-but-uncounted.
  bool conserved() const {
    return counters.submitted ==
               counters.admitted + counters.rejected_total() &&
           counters.admitted ==
               counters.completed + counters.failed + in_flight;
  }
};

class DetectionServer {
 public:
  // The synchronous half of submit(): either a typed rejection or a future,
  // plus the queue occupancy at admission — the backpressure signal a
  // well-behaved client throttles on.
  struct Submission {
    std::optional<api::Error> rejected;  // set when not admitted
    std::future<api::Outcome<api::Response>> response;  // valid when admitted
    std::size_t queue_depth = 0;     // occupancy right after this admission
    std::size_t queue_capacity = 0;

    bool admitted() const { return !rejected.has_value(); }
  };

  // Takes the detector by value (cheap: shared_ptr pipeline) and warms its
  // shared stochastic context once, before any concurrency.
  DetectionServer(api::Detector detector, ServerConfig config);
  // shutdown() — drains the queue and joins workers.
  ~DetectionServer();

  DetectionServer(const DetectionServer&) = delete;
  DetectionServer& operator=(const DetectionServer&) = delete;

  // Admission control; never blocks on detection work. Requests that set
  // options.kernel_backend are rejected kInvalidOptions: the backend force
  // is process-global and would race concurrent workers.
  Submission submit(api::Request request) HD_EXCLUDES(admission_mutex_);

  // Manual mode (start_workers == false): execute one queued request on the
  // calling thread. Returns false when the queue is empty. Also used by
  // shutdown() to drain a worker-less server.
  bool step() HD_EXCLUDES(admission_mutex_, model_mutex_);

  // Stop admitting (kShutdown), drain every queued request, join workers.
  // Idempotent; after it returns, stats().in_flight == 0.
  void shutdown() HD_EXCLUDES(admission_mutex_, model_mutex_);

  std::size_t queue_depth() const { return queue_.size(); }
  const api::Detector& detector() const { return detector_; }
  ServerStats stats() const HD_EXCLUDES(admission_mutex_);

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    api::Request request;
    std::promise<api::Outcome<api::Response>> promise;
    Clock::time_point admitted_at{};
  };

  // Per-worker statistics shard. Shard 0 doubles as the step() shard; the
  // mutex only contends with stats() snapshots, never with other workers.
  struct Shard {
    mutable util::Mutex mutex;
    util::LatencyHistogram queue_wait HD_GUARDED_BY(mutex);
    util::LatencyHistogram execute HD_GUARDED_BY(mutex);
    util::LatencyHistogram e2e HD_GUARDED_BY(mutex);
    pipeline::EncodeCacheStats encode_cache HD_GUARDED_BY(mutex);
    pipeline::CascadeStats cascade HD_GUARDED_BY(mutex);
  };

  void worker_loop(std::size_t shard_index)
      HD_EXCLUDES(admission_mutex_, model_mutex_);
  void execute_job(Job job, Shard& shard)
      HD_EXCLUDES(admission_mutex_, model_mutex_, shard.mutex);

  // Admission checks, in rejection-priority order. Returns the typed
  // rejection (and bumps its counter) or nullopt to admit. Split out of
  // submit() so the REQUIRES annotation states the contract the analysis
  // then enforces on every caller: admission decisions read shutdown_ /
  // tenant_inflight_ and must hold the admission lock.
  std::optional<api::Error> check_admission_locked(const api::Request& request)
      HD_REQUIRES(admission_mutex_);

  // Completion bookkeeping for one finished job (conservation invariant:
  // every admitted request decrements in_flight_ exactly once).
  void finish_job_locked(std::uint32_t tenant, bool ok)
      HD_REQUIRES(admission_mutex_);

  api::Detector detector_;
  ServerConfig config_;
  util::BoundedMpmcQueue<Job> queue_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;

  // Admission state: counters + in-flight tracking, one lock. Completion
  // also runs through it, so Counters snapshots are always conserved.
  mutable util::Mutex admission_mutex_;
  Counters counters_ HD_GUARDED_BY(admission_mutex_);
  std::map<std::uint32_t, std::size_t> tenant_inflight_
      HD_GUARDED_BY(admission_mutex_);
  std::size_t in_flight_ HD_GUARDED_BY(admission_mutex_) = 0;
  bool shutdown_ HD_GUARDED_BY(admission_mutex_) = false;

  // Clean scans share the model; fault-plan scans (which patch shared
  // pipeline storage via FaultSession) take it exclusively. The capability
  // guards the *pipeline storage behind detector_* (item memories, mask
  // pool, prototypes) — state the analysis cannot name directly, so the
  // acquire sites in execute_job() carry the contract instead of a
  // HD_GUARDED_BY on a member.
  util::SharedMutex model_mutex_;
};

}  // namespace hdface::serve
