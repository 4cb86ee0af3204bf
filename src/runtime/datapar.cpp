#include "src/runtime/datapar.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "src/runtime/kernels.h"

namespace gf::rt {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

bool is_power_of_two(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::size_t numel_of(const std::vector<std::int64_t>& shape) {
  std::size_t n = 1;
  for (std::int64_t d : shape) n *= static_cast<std::size_t>(d);
  return n;
}

}  // namespace

std::vector<GradBucket> plan_buckets(const std::vector<std::size_t>& grad_elems,
                                     std::size_t bucket_elems) {
  if (bucket_elems == 0)
    throw std::invalid_argument("plan_buckets: bucket_elems must be > 0");
  std::vector<GradBucket> out;
  for (std::size_t g = 0; g < grad_elems.size(); ++g) {
    const std::size_t elems = grad_elems[g];
    // A gradient never splits; an over-target one gets its own bucket.
    if (out.empty() || (out.back().elems > 0 && out.back().elems + elems > bucket_elems))
      out.emplace_back();
    GradBucket& bucket = out.back();
    bucket.slices.push_back({g, bucket.elems, elems});
    bucket.elems += elems;
  }
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> chunk_ranges(std::size_t elems,
                                                              std::size_t workers) {
  if (workers == 0) throw std::invalid_argument("chunk_ranges: workers must be >= 1");
  const std::size_t q = (elems + workers - 1) / workers;  // ceil; 0 when elems == 0
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t off = std::min(w * q, elems);
    out.emplace_back(off, std::min(q, elems - off));
  }
  return out;
}

void pairwise_tree_reduce(float* dst, const float* const* srcs, std::size_t count,
                          std::size_t elems) {
  if (count == 0 || count > kMaxTreeReduceCount)
    throw std::invalid_argument("pairwise_tree_reduce: count must be in [1, 64]");
  if (count == 1) {
    if (dst != srcs[0]) std::memcpy(dst, srcs[0], elems * sizeof(float));
    return;
  }
  // Vectorizable fast paths for the power-of-two fan-ins every ring and
  // micro-step schedule actually uses. Each spells out the identical
  // adjacent-pair association of the generic loop below, so the result is
  // bitwise-equal to the fallback path.
  if (count == 2) {
    const float* a = srcs[0];
    const float* b = srcs[1];
    for (std::size_t i = 0; i < elems; ++i) dst[i] = a[i] + b[i];
    return;
  }
  if (count == 4) {
    const float* a = srcs[0];
    const float* b = srcs[1];
    const float* c = srcs[2];
    const float* d = srcs[3];
    for (std::size_t i = 0; i < elems; ++i) dst[i] = (a[i] + b[i]) + (c[i] + d[i]);
    return;
  }
  if (count == 8) {
    const float* a = srcs[0];
    const float* b = srcs[1];
    const float* c = srcs[2];
    const float* d = srcs[3];
    const float* e = srcs[4];
    const float* f = srcs[5];
    const float* g = srcs[6];
    const float* h = srcs[7];
    for (std::size_t i = 0; i < elems; ++i)
      dst[i] = ((a[i] + b[i]) + (c[i] + d[i])) + ((e[i] + f[i]) + (g[i] + h[i]));
    return;
  }
  for (std::size_t i = 0; i < elems; ++i) {
    float level[kMaxTreeReduceCount];
    for (std::size_t k = 0; k < count; ++k) level[k] = srcs[k][i];
    // Combine adjacent pairs; an odd tail carries to the next level
    // unchanged. This association is what makes worker-local partial sums
    // over aligned power-of-two leaf blocks exact subtrees of the global
    // reduction (see the header's determinism argument).
    std::size_t n = count;
    while (n > 1) {
      std::size_t next = 0;
      for (std::size_t j = 0; j + 1 < n; j += 2) level[next++] = level[j] + level[j + 1];
      if (n % 2 != 0) level[next++] = level[n - 1];
      n = next;
    }
    dst[i] = level[0];
  }
}

double measure_barrier_seconds(int workers) {
  if (workers < 1) throw std::invalid_argument("measure_barrier_seconds: workers >= 1");
  constexpr int kReps = 2000;
  conc::Barrier barrier(static_cast<std::size_t>(workers));
  std::atomic<double> result{0.0};
  auto body = [&](int idx) {
    barrier.arrive_and_wait();  // align the start
    const auto t0 = Clock::now();
    for (int r = 0; r < kReps; ++r) barrier.arrive_and_wait();
    if (idx == 0) result.store(seconds_between(t0, Clock::now()) / kReps);
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) threads.emplace_back(body, w);
  for (std::thread& t : threads) t.join();
  return result.load();
}

double measure_copy_bandwidth() {
  constexpr std::size_t kBytes = std::size_t{8} << 20;
  std::vector<unsigned char> src(kBytes, 1);
  std::vector<unsigned char> dst(kBytes, 0);
  double best = 1e300;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = Clock::now();
    std::memcpy(dst.data(), src.data(), kBytes);
    best = std::min(best, seconds_between(t0, Clock::now()));
    src[static_cast<std::size_t>(r)] = dst[kBytes - 1];  // keep the copy live
  }
  return static_cast<double>(kBytes) / best;
}

double BucketStats::bandwidth(int workers) const {
  const double t = ring_seconds();
  if (workers <= 1 || t <= 0) return 0.0;
  const double n = workers;
  return 2.0 * (n - 1.0) / n * static_cast<double>(payload_bytes) / t;
}

/// Per-worker execution state. The flat float spans (slots / contrib /
/// avg) all use one layout: bucket b occupies [bucket_offsets_[b],
/// +bucket.elems). `contrib` is this worker's canonical subtree sum over
/// its micro-shards; peers read it (and `reduced`) during the ring, with
/// every cross-thread handoff ordered by the shared comm barrier.
struct DataParallelRunner::Worker {
  std::unique_ptr<conc::ThreadPool> pool;
  std::unique_ptr<Executor> ex;

  std::vector<float*> grad_data;  ///< executor's persistent gradient storage, grads_ order

  std::vector<std::vector<float>> slots;  ///< [micro-step][total elems]
  std::vector<float> contrib;
  std::vector<float> avg;
  std::vector<float> staging;  ///< N * max_chunk: peers' copies of the owned chunk
  std::vector<float> reduced;  ///< owned chunk, tree-reduced and pre-scaled by 1/S

  /// Per bucket: producer op_index values in this worker's executing
  /// graph — the dependency edges of the bucket's ring events.
  std::vector<std::vector<std::size_t>> bucket_producer_indices;

  // Step-scoped measurements.
  Clock::time_point step_start;
  std::vector<double> micro_start;
  std::vector<ProfileReport> micro_reports;
  double compute_seconds = 0;
  double delay_seconds = 0;
  double comm_seconds = 0;
  std::vector<BucketStats> bucket_stats;
  std::vector<TimelineEvent> ring_events;  ///< 2 per bucket: reduce-scatter, allgather
};

DataParallelRunner::DataParallelRunner(const ir::Graph& graph, const ir::Tensor* loss,
                                       const sym::Bindings& global_bindings,
                                       DataParallelOptions options)
    : options_(std::move(options)), graph_(&graph), loss_(loss) {
  const int n = options_.workers;
  const int s = options_.grad_shards;
  if (n < 1) throw std::invalid_argument("datapar: workers must be >= 1");
  if (s < n || s % n != 0 || !is_power_of_two(static_cast<std::size_t>(s / n)))
    throw std::invalid_argument(
        "datapar: grad_shards must be a multiple of workers with a power-of-two "
        "shards-per-worker quotient (the aligned-subtree condition)");
  if (static_cast<std::size_t>(s) > kMaxTreeReduceCount)
    throw std::invalid_argument("datapar: grad_shards must be <= " +
                                std::to_string(kMaxTreeReduceCount) +
                                " (pairwise_tree_reduce's fan-in limit)");
  if (options_.threads_per_worker < 1)
    throw std::invalid_argument("datapar: threads_per_worker must be >= 1");

  auto batch_it = global_bindings.find(options_.batch_symbol);
  if (batch_it == global_bindings.end())
    throw std::invalid_argument("datapar: bindings miss batch symbol '" +
                                options_.batch_symbol + "'");
  const auto global_batch = static_cast<std::int64_t>(batch_it->second);
  if (global_batch < s || global_batch % s != 0)
    throw std::invalid_argument("datapar: global batch must be a positive multiple of "
                                "grad_shards");
  micro_bindings_ = global_bindings;
  micro_bindings_[options_.batch_symbol] = static_cast<double>(global_batch / s);

  // Fixed gradient order: the graph's ApplyGradient ops, sorted by their
  // gradient's producer position. It fixes the bucket layout, and with it
  // the bits of every reduction.
  std::unordered_map<const ir::Op*, std::size_t> op_pos;
  op_pos.reserve(graph.ops().size());
  for (std::size_t i = 0; i < graph.ops().size(); ++i) op_pos.emplace(graph.ops()[i].get(), i);
  for (const auto& op : graph.ops()) {
    if (op->type() != ir::OpType::kApplyGradient) continue;
    const auto& apply = static_cast<const ir::ApplyGradientOp&>(*op);
    GradInfo info;
    info.weight = apply.input(0);
    info.grad = apply.input(1);
    for (std::size_t i = 2; i < apply.inputs().size(); ++i)
      info.slots.push_back(apply.input(i));
    info.optimizer = apply.optimizer();
    info.elems = numel_of(info.grad->shape().eval(micro_bindings_));
    grads_.push_back(std::move(info));
  }
  std::stable_sort(grads_.begin(), grads_.end(), [&](const GradInfo& a, const GradInfo& b) {
    return op_pos.at(a.grad->producer()) < op_pos.at(b.grad->producer());
  });
  grad_tensors_.reserve(grads_.size());
  for (const GradInfo& g : grads_) grad_tensors_.push_back(g.grad);

  std::vector<std::size_t> elems;
  elems.reserve(grads_.size());
  for (const GradInfo& g : grads_) elems.push_back(g.elems);
  const std::size_t bucket_elems = std::max<std::size_t>(1, options_.bucket_bytes / 4);
  buckets_ = plan_buckets(elems, bucket_elems);
  bucket_offsets_.reserve(buckets_.size());
  for (const GradBucket& b : buckets_) {
    bucket_offsets_.push_back(total_elems_);
    for (const GradSlice& sl : b.slices)
      grads_[sl.grad_index].flat_offset = total_elems_ + sl.offset;
    total_elems_ += b.elems;
    const std::size_t chunk = (b.elems + n - 1) / n;
    max_chunk_elems_ = std::max(max_chunk_elems_, chunk);
  }

  build_global_inputs(graph, global_bindings);

  // Straggler schedule: sampled once, per (worker, micro-step), from the
  // same lognormal jitter model ext_stragglers uses analytically.
  const int micro = s / n;
  straggler_delays_.assign(n, std::vector<double>(micro, 0.0));
  if (options_.straggler_sigma > 0) {
    const double sigma = options_.straggler_sigma;
    for (int w = 0; w < n; ++w) {
      std::mt19937 rng(options_.straggler_seed + 7919u * static_cast<unsigned>(w));
      std::lognormal_distribution<double> jitter(-sigma * sigma / 2.0, sigma);
      for (int m = 0; m < micro; ++m)
        straggler_delays_[w][m] =
            options_.straggler_scale_seconds * std::max(0.0, jitter(rng) - 1.0);
    }
  }

  // Workers: own pool, own executor (own arena/plan), updates applied by
  // the runner so the ring's *averaged* gradients reach the weights.
  comm_barrier_ = std::make_unique<conc::Barrier>(static_cast<std::size_t>(n));
  micro_losses_.assign(static_cast<std::size_t>(s), 0.0f);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    auto wk = std::make_unique<Worker>();
    wk->pool = std::make_unique<conc::ThreadPool>(options_.threads_per_worker);
    ExecutorOptions eopt = options_.executor;
    eopt.pool = wk->pool.get();
    eopt.apply_updates = false;
    wk->ex = std::make_unique<Executor>(graph, micro_bindings_, eopt);
    if (loss_ != nullptr) wk->ex->retain(loss_);

    // Bucket b's ring events depend on the distinct producer ops of its
    // gradients in this worker's executing graph (the fused clone when
    // fusion is on).
    const ir::OpDag wdag = ir::build_op_dag(wk->ex->executing_graph());
    std::unordered_map<const ir::Op*, std::size_t> windex;
    windex.reserve(wdag.order.size());
    for (std::size_t i = 0; i < wdag.order.size(); ++i) windex.emplace(wdag.order[i], i);
    wk->bucket_producer_indices.assign(buckets_.size(), {});
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      auto& idx = wk->bucket_producer_indices[b];
      for (const GradSlice& sl : buckets_[b].slices)
        idx.push_back(windex.at(wk->ex->resolve(grads_[sl.grad_index].grad)->producer()));
      std::sort(idx.begin(), idx.end());
      idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
    }

    // Weight gradients are persistent: the executor allocated their
    // storage at construction, and it never moves.
    wk->grad_data.reserve(grads_.size());
    for (const GradInfo& g : grads_)
      wk->grad_data.push_back(wk->ex->weight_value(g.grad).fdata());
    wk->slots.assign(static_cast<std::size_t>(micro), std::vector<float>(total_elems_));
    wk->contrib.assign(total_elems_, 0.0f);
    wk->avg.assign(total_elems_, 0.0f);
    wk->staging.assign(static_cast<std::size_t>(n) * max_chunk_elems_, 0.0f);
    wk->reduced.assign(max_chunk_elems_, 0.0f);
    workers_.push_back(std::move(wk));
  }
}

DataParallelRunner::~DataParallelRunner() = default;

void DataParallelRunner::build_global_inputs(const ir::Graph& graph,
                                             const sym::Bindings& global_bindings) {
  const int s = options_.grad_shards;
  micro_inputs_.assign(static_cast<std::size_t>(s), {});
  for (const auto& t : graph.tensors()) {
    if (t->role() != ir::TensorRole::kInput || t->producer() != nullptr) continue;
    const std::vector<std::int64_t> shape_g = t->shape().eval(global_bindings);
    const std::vector<std::int64_t> shape_m = t->shape().eval(micro_bindings_);
    DenseTensor global(shape_g, t->dtype());
    // The executor's own stream at the *global* binding: every shard sees
    // the same data no matter how many workers slice it.
    deterministic_fill(t.get(), global_bindings, options_.executor.seed, global);
    inputs_.push_back(t.get());
    if (shape_g == shape_m) {
      // Batch-independent input: broadcast to every shard.
      for (int shard = 0; shard < s; ++shard) micro_inputs_[shard].push_back(global);
      continue;
    }
    if (shape_m.empty() || shape_g.empty() ||
        shape_g[0] != static_cast<std::int64_t>(s) * shape_m[0] ||
        !std::equal(shape_g.begin() + 1, shape_g.end(), shape_m.begin() + 1,
                    shape_m.end()))
      throw std::invalid_argument(
          "datapar: input '" + t->name() +
          "' is not shardable along its leading dimension (global shape must be "
          "grad_shards x the micro shape)");
    const std::size_t rows = static_cast<std::size_t>(shape_m[0]);
    std::size_t row_elems = 1;
    for (std::size_t d = 1; d < shape_m.size(); ++d)
      row_elems *= static_cast<std::size_t>(shape_m[d]);
    const std::size_t elem_bytes = ir::dtype_bytes(t->dtype());
    const auto* src = static_cast<const unsigned char*>(
        global.is_float() ? static_cast<const void*>(global.fdata())
                          : static_cast<const void*>(global.idata()));
    for (int shard = 0; shard < s; ++shard) {
      DenseTensor slice(shape_m, t->dtype());
      auto* dst = static_cast<unsigned char*>(slice.is_float()
                                                  ? static_cast<void*>(slice.fdata())
                                                  : static_cast<void*>(slice.idata()));
      std::memcpy(dst,
                  src + static_cast<std::size_t>(shard) * rows * row_elems * elem_bytes,
                  rows * row_elems * elem_bytes);
      micro_inputs_[shard].push_back(std::move(slice));
    }
  }
}

double DataParallelRunner::total_gradient_bytes() const {
  return static_cast<double>(total_elems_) * 4.0;
}

const DenseTensor& DataParallelRunner::averaged_gradient(const ir::Tensor* grad) const {
  for (const GradInfo& g : grads_)
    if (g.grad == grad || g.weight == grad) return workers_.front()->ex->value(g.grad);
  throw std::invalid_argument("datapar: not a tracked weight/gradient tensor");
}

Executor& DataParallelRunner::worker_executor(int w) {
  return *workers_.at(static_cast<std::size_t>(w))->ex;
}

double DataParallelRunner::straggler_delay(int worker, int micro_step) const {
  return straggler_delays_.at(static_cast<std::size_t>(worker))
      .at(static_cast<std::size_t>(micro_step));
}

void DataParallelRunner::note_error(std::exception_ptr error) noexcept {
  std::lock_guard lock(error_mutex_);
  if (!error_) error_ = std::move(error);
}

DataParallelStepResult DataParallelRunner::step() {
  if (poisoned_)
    throw std::runtime_error(
        "DataParallelRunner::step: a previous step failed and broke the gang's "
        "barriers; construct a fresh runner");
  const int n = options_.workers;
  error_ = nullptr;
  const auto t0 = Clock::now();
  for (auto& wk : workers_) {
    wk->micro_start.clear();
    wk->micro_reports.clear();
    wk->compute_seconds = 0;
    wk->delay_seconds = 0;
    wk->comm_seconds = 0;
    wk->bucket_stats.assign(buckets_.size(), {});
    wk->ring_events.clear();
    wk->step_start = t0;
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) threads.emplace_back([this, w] { run_worker(w); });
  for (std::thread& t : threads) t.join();
  if (error_) {
    poisoned_ = true;
    std::rethrow_exception(error_);
  }

  DataParallelStepResult res;
  res.wall_seconds = seconds_between(t0, Clock::now());
  if (loss_ != nullptr) {
    const int s = options_.grad_shards;
    std::vector<const float*> srcs(static_cast<std::size_t>(s));
    for (int i = 0; i < s; ++i) srcs[i] = &micro_losses_[static_cast<std::size_t>(i)];
    float sum = 0;
    pairwise_tree_reduce(&sum, srcs.data(), static_cast<std::size_t>(s), 1);
    res.loss = sum * (1.0f / static_cast<float>(s));
  }
  res.workers.reserve(static_cast<std::size_t>(n));
  for (const auto& wk : workers_) {
    WorkerStepStats ws;
    ws.compute_seconds = wk->compute_seconds;
    ws.delay_seconds = wk->delay_seconds;
    ws.comm_seconds = wk->comm_seconds;
    res.workers.push_back(ws);
  }
  res.buckets.resize(buckets_.size());
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    BucketStats& bs = res.buckets[b];
    bs.payload_bytes = buckets_[b].elems * 4;
    for (const auto& wk : workers_) {
      bs.reduce_scatter_seconds =
          std::max(bs.reduce_scatter_seconds, wk->bucket_stats[b].reduce_scatter_seconds);
      bs.allgather_seconds =
          std::max(bs.allgather_seconds, wk->bucket_stats[b].allgather_seconds);
    }
  }
  res.timeline = merge_timeline(res.wall_seconds);
  return res;
}

void DataParallelRunner::run_worker(int w) {
  Worker& wk = *workers_[static_cast<std::size_t>(w)];
  const int micro = micro_steps();
  try {
    for (int m = 0; m < micro; ++m) {
      const double delay = straggler_delays_[static_cast<std::size_t>(w)]
                                            [static_cast<std::size_t>(m)];
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(delay));
        wk.delay_seconds += delay;
      }
      const int shard = w * micro + m;
      for (std::size_t i = 0; i < inputs_.size(); ++i)
        wk.ex->set_input(inputs_[i], micro_inputs_[static_cast<std::size_t>(shard)][i]);
      const auto micro_start = Clock::now();
      wk.micro_start.push_back(seconds_between(wk.step_start, micro_start));
      wk.micro_reports.push_back(wk.ex->run_step());
      wk.compute_seconds += seconds_between(micro_start, Clock::now());
      if (loss_ != nullptr)
        micro_losses_[static_cast<std::size_t>(shard)] = wk.ex->value(loss_).f(0);
      std::vector<float>& slot = wk.slots[static_cast<std::size_t>(m)];
      for (std::size_t g = 0; g < grads_.size(); ++g)
        std::memcpy(slot.data() + grads_[g].flat_offset, wk.grad_data[g],
                    grads_[g].elems * sizeof(float));
    }
    std::vector<const float*> srcs(static_cast<std::size_t>(micro));
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      const std::size_t base = bucket_offsets_[b];
      for (int k = 0; k < micro; ++k)
        srcs[static_cast<std::size_t>(k)] = wk.slots[static_cast<std::size_t>(k)].data() + base;
      pairwise_tree_reduce(wk.contrib.data() + base, srcs.data(),
                           static_cast<std::size_t>(micro), buckets_[b].elems);
    }
    for (std::size_t b = 0; b < buckets_.size(); ++b) ring_bucket(w, b);
    apply_updates(w);
  } catch (...) {
    // Record first, then release the gang: a peer blocked in the ring
    // throws the barrier's abort error, which note_error then drops in
    // favour of this one.
    note_error(std::current_exception());
    comm_barrier_->abort();
  }
}

void DataParallelRunner::ring_bucket(int w, std::size_t b) {
  Worker& wk = *workers_[static_cast<std::size_t>(w)];
  const int n = options_.workers;
  const GradBucket& bucket = buckets_[b];
  const std::size_t base = bucket_offsets_[b];
  const auto chunks = chunk_ranges(bucket.elems, static_cast<std::size_t>(n));
  const auto [own_off, own_len] = chunks[static_cast<std::size_t>(w)];
  const float inv_s = 1.0f / static_cast<float>(options_.grad_shards);

  // Entry barrier: every worker's contribution for this bucket is final
  // (and every peer finished reading the previous bucket's `reduced`).
  comm_barrier_->arrive_and_wait();
  const auto rs_start = Clock::now();

  // Reduce-scatter, N-1 lockstep ring steps: at step s this worker pulls
  // its owned chunk's contribution from peer (w+1+s) mod N — the rotated
  // access pattern that balances a wire ring — into a per-peer staging
  // slot. Contributions are staged, not folded in arrival order, so the
  // reduction below can run in fixed worker-index order.
  for (int s = 0; s + 1 < n; ++s) {
    const auto peer = static_cast<std::size_t>((w + 1 + s) % n);
    std::memcpy(wk.staging.data() + peer * max_chunk_elems_,
                workers_[peer]->contrib.data() + base + own_off,
                own_len * sizeof(float));
    comm_barrier_->arrive_and_wait();
  }
  // Owner-side reduction: continue the canonical tree over the N aligned
  // block sums, then fold in the exact 1/S average while the chunk is hot.
  std::vector<const float*> srcs(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p)
    srcs[static_cast<std::size_t>(p)] =
        p == w ? wk.contrib.data() + base + own_off
               : wk.staging.data() + static_cast<std::size_t>(p) * max_chunk_elems_;
  pairwise_tree_reduce(wk.reduced.data(), srcs.data(), static_cast<std::size_t>(n),
                       own_len);
  for (std::size_t i = 0; i < own_len; ++i) wk.reduced[i] *= inv_s;
  comm_barrier_->arrive_and_wait();
  const auto rs_end = Clock::now();

  // Allgather, N-1 lockstep steps: pull each remaining averaged chunk from
  // its owner (own chunk is a local copy).
  std::memcpy(wk.avg.data() + base + own_off, wk.reduced.data(), own_len * sizeof(float));
  auto ag_end = Clock::now();
  for (int s = 0; s + 1 < n; ++s) {
    const auto owner = static_cast<std::size_t>((w + 1 + s) % n);
    const auto [o_off, o_len] = chunks[owner];
    std::memcpy(wk.avg.data() + base + o_off, workers_[owner]->reduced.data(),
                o_len * sizeof(float));
    // This worker's data movement is done after its last copy; the final
    // rendezvous below only synchronizes with peers, and on an
    // oversubscribed core its wait measures runqueue latency (the step's
    // optimizer work may already be running), not the ring. The slowest
    // worker's span — which max-over-workers aggregation reports — still
    // covers the full serialized allgather.
    if (s + 2 == n) ag_end = Clock::now();
    comm_barrier_->arrive_and_wait();
  }

  // Averaged gradients land back in the executor's persistent gradient
  // storage, exactly where the optimizer kernels expect them.
  for (const GradSlice& sl : bucket.slices)
    std::memcpy(wk.grad_data[sl.grad_index], wk.avg.data() + base + sl.offset,
                sl.elems * sizeof(float));

  BucketStats& bs = wk.bucket_stats[b];
  bs.payload_bytes = bucket.elems * 4;
  bs.reduce_scatter_seconds = seconds_between(rs_start, rs_end);
  bs.allgather_seconds = seconds_between(rs_end, ag_end);
  wk.comm_seconds += bs.ring_seconds();

  TimelineEvent rs_ev;
  rs_ev.name = "ring-reduce-scatter:b" + std::to_string(b);
  rs_ev.type = ir::OpType::kReduce;
  rs_ev.category = "comm";
  rs_ev.kernel_class = "ring-allreduce";
  rs_ev.start_seconds = seconds_between(wk.step_start, rs_start);
  rs_ev.end_seconds = seconds_between(wk.step_start, rs_end);
  rs_ev.bytes = static_cast<double>(own_len) * (n - 1) * 4.0;
  TimelineEvent ag_ev = rs_ev;
  ag_ev.name = "ring-allgather:b" + std::to_string(b);
  ag_ev.start_seconds = rs_ev.end_seconds;
  ag_ev.end_seconds = seconds_between(wk.step_start, ag_end);
  ag_ev.bytes = static_cast<double>(bucket.elems - own_len) * 4.0;
  wk.ring_events.push_back(std::move(rs_ev));
  wk.ring_events.push_back(std::move(ag_ev));
}

void DataParallelRunner::apply_updates(int w) {
  Worker& wk = *workers_[static_cast<std::size_t>(w)];
  for (const GradInfo& g : grads_) {
    KernelStats stats;
    std::vector<DenseTensor*> slots;
    slots.reserve(g.slots.size());
    for (const ir::Tensor* slot : g.slots) slots.push_back(&wk.ex->weight_value(slot));
    apply_gradient(g.optimizer, wk.ex->weight_value(g.weight),
                   wk.ex->weight_value(g.grad), slots, options_.executor.learning_rate,
                   *wk.pool, stats);
  }
}

ProfileReport DataParallelRunner::merge_timeline(double wall_seconds) {
  // Lane layout: worker w's executor events keep their relative lanes
  // inside block [w*(T+1), (w+1)*(T+1)) where T = threads_per_worker: the
  // block's first lane is the worker thread itself (the caller's lane in
  // an executor timeline), the rest its pool threads. The worker thread
  // runs the ring, so its ring events go on that first lane.
  const int n = options_.workers;
  const int lane_width = static_cast<int>(options_.threads_per_worker) + 1;

  // Every event's deps are first rewritten to positions in `events`, then
  // to the re-sorted indices, in its own vector: the workers' events are
  // moved, not copied (step() has read what it needs from the micro-step
  // reports, and the next step clears them). `events` is sized up front:
  // reallocating it as it grew cost more than the rest of the merge.
  std::vector<TimelineEvent> events;
  std::size_t total_events = 0;
  for (const auto& wk : workers_) {
    total_events += wk->ring_events.size();
    for (const ProfileReport& rep : wk->micro_reports) total_events += rep.timeline.size();
  }
  events.reserve(total_events);
  // pos_of[w][m][op_index] -> position; ring_pos[w][2b + phase] -> position.
  std::vector<std::vector<std::vector<std::size_t>>> pos_of(
      static_cast<std::size_t>(n));
  std::vector<std::vector<std::size_t>> ring_pos(static_cast<std::size_t>(n));

  for (int w = 0; w < n; ++w) {
    Worker& wk = *workers_[static_cast<std::size_t>(w)];
    pos_of[static_cast<std::size_t>(w)].resize(wk.micro_reports.size());
    for (std::size_t m = 0; m < wk.micro_reports.size(); ++m) {
      ProfileReport& rep = wk.micro_reports[m];
      const double offset = wk.micro_start[m];
      auto& positions = pos_of[static_cast<std::size_t>(w)][m];
      positions.resize(rep.timeline.size());
      for (TimelineEvent& ev : rep.timeline) {
        ev.start_seconds += offset;
        ev.end_seconds += offset;
        ev.worker = w * lane_width + (ev.worker + 1);
        positions[ev.op_index] = events.size();
        const bool root = ev.deps.empty();
        for (std::size_t& d : ev.deps) d = positions[d];
        // Micro-steps are sequential on a worker: root ops of step m
        // causally follow the last op of step m-1.
        if (root && m > 0) {
          const auto& prev = pos_of[static_cast<std::size_t>(w)][m - 1];
          if (!prev.empty()) ev.deps.push_back(prev.back());
        }
        events.push_back(std::move(ev));
      }
    }
    for (std::size_t r = 0; r < wk.ring_events.size(); ++r) {
      TimelineEvent ev = std::move(wk.ring_events[r]);
      ev.worker = w * lane_width;
      const std::size_t b = r / 2;
      if (r % 2 == 0) {
        // Reduce-scatter waits on the bucket's gradient producers in the
        // last micro-step, and on this worker's previous ring phase. The
        // first one also waits on the last micro-step's final op, as a
        // micro-step's roots do on the step before: the ring starts after
        // backward ends.
        if (!pos_of[static_cast<std::size_t>(w)].empty()) {
          const auto& last = pos_of[static_cast<std::size_t>(w)].back();
          for (std::size_t p : wk.bucket_producer_indices[b])
            if (p < last.size()) ev.deps.push_back(last[p]);
          if (r == 0 && !last.empty()) ev.deps.push_back(last.back());
        }
        if (r > 0) ev.deps.push_back(ring_pos[static_cast<std::size_t>(w)][r - 1]);
      } else {
        // Allgather reads every owner's reduced chunk: it waits on the
        // bucket's reduce-scatter phase on all workers that recorded one.
        for (int p = 0; p < n; ++p)
          if (r - 1 < ring_pos[static_cast<std::size_t>(p)].size())
            ev.deps.push_back(ring_pos[static_cast<std::size_t>(p)][r - 1]);
      }
      ring_pos[static_cast<std::size_t>(w)].push_back(events.size());
      events.push_back(std::move(ev));
    }
  }

  // Re-index by start time so op_index is the dense, causally ordered
  // range whatif::load_trace demands; a dep always *ends* before its
  // dependent starts, so sorting by start keeps every edge forward.
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t c) {
    if (events[a].start_seconds != events[c].start_seconds)
      return events[a].start_seconds < events[c].start_seconds;
    if (events[a].end_seconds != events[c].end_seconds)
      return events[a].end_seconds < events[c].end_seconds;
    return events[a].worker < events[c].worker;
  });
  std::vector<std::size_t> new_index(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) new_index[order[i]] = i;

  ProfileReport report;
  report.wall_seconds = wall_seconds;
  report.timeline.reserve(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    TimelineEvent ev = std::move(events[order[i]]);
    ev.op_index = i;
    std::size_t kept = 0;
    for (std::size_t j = 0; j < ev.deps.size(); ++j)
      if (new_index[ev.deps[j]] < i) ev.deps[kept++] = new_index[ev.deps[j]];
    ev.deps.resize(kept);
    std::sort(ev.deps.begin(), ev.deps.end());
    ev.deps.erase(std::unique(ev.deps.begin(), ev.deps.end()), ev.deps.end());
    if (ev.category.empty())
      report.add(ev.type, ev.flops, ev.bytes, ev.end_seconds - ev.start_seconds);
    report.timeline.push_back(std::move(ev));
  }
  for (const auto& wk : workers_)
    if (!wk->micro_reports.empty())
      report.peak_allocated_bytes += wk->micro_reports.back().peak_allocated_bytes;
  return report;
}

}  // namespace gf::rt
