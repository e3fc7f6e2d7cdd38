// The campaign digests declared in src/soft/chaos.h. They live in soft_core,
// apart from the chaos enumerator, because the coordinator, the CLI and the
// benchmarks fold campaign results with them.
#include "src/soft/chaos.h"

#include <algorithm>
#include <string>
#include <vector>

namespace soft {
namespace {

// FNV-1a over a byte string.
uint64_t FnvFold(uint64_t digest, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    digest ^= c;
    digest *= 0x100000001B3ull;
  }
  return digest;
}

uint64_t FnvFoldInt(uint64_t digest, int64_t v) {
  return FnvFold(digest, std::to_string(v));
}

}  // namespace

uint64_t DigestCampaignResult(const CampaignResult& result) {
  // Deterministic fields only: wall-clock quantities (found_wall_ns, stage
  // latencies) and journal_degraded (which is exactly what degrade-class
  // injections change) are excluded, mirroring the bit-identical-merge
  // tests' comparison set.
  uint64_t d = 0xCBF29CE484222325ull;
  d = FnvFold(d, result.tool);
  d = FnvFold(d, result.dialect);
  d = FnvFoldInt(d, result.statements_executed);
  d = FnvFoldInt(d, result.sql_errors);
  d = FnvFoldInt(d, result.crashes_observed);
  d = FnvFoldInt(d, result.false_positives);
  d = FnvFoldInt(d, result.watchdog_timeouts);
  d = FnvFoldInt(d, static_cast<int64_t>(result.functions_triggered));
  d = FnvFoldInt(d, static_cast<int64_t>(result.branches_covered));
  d = FnvFoldInt(d, result.shards);
  for (const int n : result.shard_statements) {
    d = FnvFoldInt(d, n);
  }
  for (const FoundBug& bug : result.unique_bugs) {
    d = FnvFoldInt(d, bug.crash.bug_id);
    d = FnvFold(d, bug.found_by);
    d = FnvFold(d, bug.poc_sql);
    d = FnvFoldInt(d, bug.statements_until_found);
    d = FnvFoldInt(d, bug.shard);
  }
  // Wrong-result outcome: counters plus shard-invariant bug identity, so a
  // logic campaign's digest also moves when an oracle regresses.
  d = FnvFoldInt(d, result.logic_checks);
  d = FnvFoldInt(d, result.logic_divergences);
  d = FnvFoldInt(d, result.logic_false_positives);
  for (const FoundLogicBug& bug : result.logic_bugs) {
    d = FnvFoldInt(d, bug.info.bug_id);
    d = FnvFold(d, bug.oracle);
    d = FnvFold(d, bug.poc_sql);
    d = FnvFoldInt(d, bug.case_index);
  }
  return d;
}

uint64_t DigestBugInventory(const CampaignResult& result) {
  std::vector<int64_t> crash_ids;
  crash_ids.reserve(result.unique_bugs.size());
  for (const FoundBug& bug : result.unique_bugs) {
    crash_ids.push_back(bug.crash.bug_id);
  }
  std::sort(crash_ids.begin(), crash_ids.end());
  std::vector<int64_t> logic_ids;
  logic_ids.reserve(result.logic_bugs.size());
  for (const FoundLogicBug& bug : result.logic_bugs) {
    logic_ids.push_back(bug.info.bug_id);
  }
  std::sort(logic_ids.begin(), logic_ids.end());
  uint64_t d = 0xCBF29CE484222325ull;
  d = FnvFold(d, result.dialect);
  d = FnvFoldInt(d, static_cast<int64_t>(crash_ids.size()));
  for (const int64_t id : crash_ids) {
    d = FnvFoldInt(d, id);
  }
  d = FnvFoldInt(d, static_cast<int64_t>(logic_ids.size()));
  for (const int64_t id : logic_ids) {
    d = FnvFoldInt(d, id);
  }
  return d;
}

uint64_t DigestLogicOutcome(const CampaignResult& result) {
  uint64_t d = 0xCBF29CE484222325ull;
  d = FnvFold(d, result.dialect);
  d = FnvFoldInt(d, result.logic_checks);
  d = FnvFoldInt(d, result.logic_divergences);
  d = FnvFoldInt(d, result.logic_false_positives);
  for (const FoundLogicBug& bug : result.logic_bugs) {
    d = FnvFoldInt(d, bug.info.bug_id);
    d = FnvFold(d, bug.oracle);
    d = FnvFold(d, bug.poc_sql);
    d = FnvFoldInt(d, bug.case_index);
  }
  return d;
}

}  // namespace soft
