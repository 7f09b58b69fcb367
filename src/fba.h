// Umbrella header: the full public API of the fba library.
//
//   fba::aer     — AER, the paper's almost-everywhere to everywhere protocol
//   fba::ae      — KSSV06-style almost-everywhere agreement tournament
//   fba::ba      — the composed Byzantine Agreement protocol
//   fba::baseline— FLOOD-ALL and SQRT-SAMPLE comparators
//   fba::sampler — the I/H/J sampler machinery (Section 2.2)
//   fba::sim     — the simulated network engines (sync / async)
//   fba::adv     — the Byzantine adversary and its strategy gallery
//   fba::exp     — the multi-threaded multi-trial experiment runner
//
// Quickstart (see examples/quickstart.cpp):
//
//   fba::ba::BaConfig config;
//   config.n = 512;
//   auto report = fba::ba::run_ba(config);
//   // report.agreement, report.total_time, report.amortized_bits ...
#pragma once

#include "adversary/adversary.h"
#include "adversary/strategies.h"
#include "ae/committee.h"
#include "ae/kssv.h"
#include "aer/config.h"
#include "aer/messages.h"
#include "aer/node.h"
#include "aer/protocol.h"
#include "aer/runner.h"
#include "aer/soa.h"
#include "ba/ba.h"
#include "baseline/flood.h"
#include "baseline/sqrtsample.h"
#include "exp/aggregate.h"
#include "exp/arena.h"
#include "exp/grid.h"
#include "exp/procpool.h"
#include "exp/report.h"
#include "exp/scenario.h"
#include "exp/service.h"
#include "exp/shard.h"
#include "exp/stats.h"
#include "exp/sweep.h"
#include "net/async_engine.h"
#include "net/event_queue.h"
#include "net/message.h"
#include "net/sync_engine.h"
#include "sampler/properties.h"
#include "sampler/sampler.h"
#include "sampler/tables.h"
#include "support/bitstring.h"
#include "support/flat_counter.h"
#include "support/flat_map.h"
#include "support/histogram.h"
#include "support/intern.h"
#include "support/mem.h"
#include "support/pool.h"
#include "support/json.h"
#include "support/metrics.h"
#include "support/permutation.h"
#include "support/random.h"
#include "support/siphash.h"
#include "support/table.h"
#include "support/types.h"
#include "svc/pipeline.h"
#include "svc/queue.h"
