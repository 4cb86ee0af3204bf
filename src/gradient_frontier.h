// gradient_frontier — umbrella header for the full public API.
//
// A C++ reproduction of "Beyond Human-Level Accuracy: Computational
// Challenges in Deep Learning" (Hestness, Ardalani, Diamos; PPoPP 2019):
// symbolic compute-graph analysis (the paper's Catamount artifact), the
// five DL model families, scaling-law frontier projections, Roofline and
// cache-hierarchy-aware hardware models, parallelism planning, and a
// numeric executor for cross-validation.
//
// Layers (each usable on its own):
//   gf::sym       symbolic expressions over model dimensions
//   gf::conc      thread pool / parallel_for
//   gf::ir        compute-graph IR, autodiff, footprint analysis
//   gf::models    word LM, char LM, NMT, speech, ResNet builders
//   gf::analysis  per-step characterization, sweeps, Table-2 fits
//   gf::scaling   learning curves, Table-1 data, frontier projection
//   gf::hw        accelerator config, Roofline, cache model, subbatch
//   gf::plan      allreduce, data/layer parallelism, Table-5 case study
//   gf::verify    static-analysis passes (lint) over the graph IR
//   gf::rt        numeric executor + TFprof-style profiler
//   gf::whatif    Daydream-style what-if trace re-simulation, and the §6
//                 cluster schedules (ring, sync-SGD, pipeline) as traces
//   gf::serve     multi-tenant analysis service + content-addressed cache
#pragma once

#include "src/analysis/first_order.h"
#include "src/analysis/stages.h"
#include "src/analysis/step_analysis.h"
#include "src/analysis/sweep.h"
#include "src/concurrency/thread_pool.h"
#include "src/hw/accelerator.h"
#include "src/hw/cache_model.h"
#include "src/hw/roofline.h"
#include "src/hw/subbatch.h"
#include "src/ir/footprint.h"
#include "src/ir/gradients.h"
#include "src/ir/graph.h"
#include "src/ir/hash.h"
#include "src/ir/ops.h"
#include "src/models/models.h"
#include "src/plan/allreduce.h"
#include "src/plan/case_study.h"
#include "src/plan/data_parallel.h"
#include "src/plan/layer_parallel.h"
#include "src/runtime/executor.h"
#include "src/scaling/domains.h"
#include "src/scaling/power_law.h"
#include "src/scaling/projection.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "src/symbolic/expr.h"
#include "src/util/format.h"
#include "src/util/json.h"
#include "src/util/table.h"
#include "src/verify/pass.h"
#include "src/whatif/cluster.h"
#include "src/whatif/resim.h"
#include "src/whatif/trace.h"
#include "src/whatif/transform.h"
