// fba_bench --compare: two sets of --json run records, compared metric by
// metric against the bounds BENCHMARK.json declares.
#pragma once

#include <string>
#include <vector>

namespace fba::bench {

/// Prints, for every (workload, seed, trace) group and metric, each set's
/// median and quartiles. Returns 0 when every bounded metric's median stays
/// within its bound, every exact metric and result_fp match across all
/// records, and every record was correct; 1 otherwise. Throws ConfigError
/// on an unreadable or malformed file.
int compare_runs(const std::string& spec_path,
                 const std::vector<std::string>& set_a,
                 const std::vector<std::string>& set_b);

}  // namespace fba::bench
