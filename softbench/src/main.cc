// softbench: the repository's campaign benchmark (see ../README.md).
//
//   softbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--results-dir <dir>]
//   softbench --smoke [--results-dir <dir>]
//
// --trace 0 measures the end-to-end metrics: set-up is timed several times
// through the program's public set-up calls, then the workload's campaign
// call (RunShardedSoftCampaign, RunFleetCampaign, or the three baseline
// fuzzers) repeats until --seconds is spent, and the medians are reported.
// --trace 1 runs the campaign once untraced and once decomposed into the
// program's public calls with a span around each, and reports per-layer
// numbers. Every run checks the outputs (pinned seed-1 digests, digest
// parity between repetitions, traced vs untraced, serial vs fleet) and
// prints, as its last line, one JSON object with correct / attempted /
// failed / metrics. Exit code 1 when a check fails, 2 on bad usage.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "ledger.h"
#include "soft_replay.h"
#include "src/baselines/comparison.h"
#include "src/dialects/dialects.h"
#include "src/fleet/coordinator.h"
#include "src/soft/chaos.h"
#include "src/soft/parallel_runner.h"
#include "src/soft/soft_fuzzer.h"
#include "src/soft/wire.h"

namespace softbench {
namespace {

using soft::CampaignOptions;
using soft::CampaignResult;

enum class Kind { kSerial, kFleet, kBaselines };

// Workload definitions; README.md says why each exists.
struct Workload {
  std::string name;
  Kind kind = Kind::kSerial;
  std::string dialect;
  int budget = 0;  // statements (per tool for the baselines)
  bool stop_when_all_bugs_found = false;
  std::vector<std::string> oracles;
  int units = 0;    // fleet work units
  int workers = 0;  // fleet worker processes
};

const char* const kWorkloadNames[] = {"table4_serial", "table4_fleet", "oracle_duckdb",
                                      "baselines_pg"};
const char* const kBaselineTools[] = {"SQUIRREL*", "SQLancer*", "SQLsmith*"};
const char* const kBaselineKeys[] = {"squirrel", "sqlancer", "sqlsmith"};

int HostCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

bool MakeWorkload(const std::string& name, bool smoke, Workload& w) {
  w.name = name;
  if (name == "table4_serial" || name == "table4_fleet") {
    w.kind = name == "table4_serial" ? Kind::kSerial : Kind::kFleet;
    w.dialect = "virtuoso";
    w.budget = smoke ? 3000 : 250000;
    w.stop_when_all_bugs_found = true;  // as find_bugs does without oracles
    w.units = smoke ? 4 : 16;
    w.workers = smoke ? 2 : std::max(1, HostCpus() - 1);
  } else if (name == "oracle_duckdb") {
    // The whole case pool (~49 400 cases): a 20 000-case prefix holds none,
    // one or both of the two statements whose oracle checks cost seconds,
    // depending on the seed, so its time varies 3x between seeds.
    w.dialect = "duckdb";
    w.budget = smoke ? 600 : 250000;
    w.oracles = {"all"};
  } else if (name == "baselines_pg") {
    w.kind = Kind::kBaselines;
    w.dialect = "postgresql";
    w.budget = smoke ? 2000 : 100000;
  } else {
    return false;
  }
  return true;
}

CampaignOptions OptionsFor(const Workload& w, uint64_t seed) {
  CampaignOptions options;
  options.seed = seed;
  options.max_statements = w.budget;
  options.stop_when_all_bugs_found = w.stop_when_all_bugs_found;
  options.logic_oracles = w.oracles;
  return options;
}

// --- correctness gate ---------------------------------------------------------

struct Gate {
  bool ok = true;
  void Expect(bool condition, const std::string& what) {
    if (!condition) {
      ok = false;
      std::fprintf(stderr, "softbench: CHECK FAILED: %s\n", what.c_str());
    }
  }
  void ExpectDigest(uint64_t got, uint64_t want, const std::string& what) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), " (got 0x%016llx, want 0x%016llx)",
                  static_cast<unsigned long long>(got), static_cast<unsigned long long>(want));
    Expect(got == want, what + buf);
  }
};

// Pinned seed-1 values of the full-size workloads.
constexpr uint64_t kVirtuosoBugDigest = 0x12ce3d5a08a97b5eull;
constexpr uint64_t kTable4SerialOutcome = 0xb79373a1ceb4e656ull;
constexpr uint64_t kTable4FleetOutcome = 0x2e60130b5a60012eull;
constexpr uint64_t kDuckdbLogicDigest = 0xe401b66823b8aba4ull;  // budget 20 000
constexpr int kDuckdbPinnedBudget = 20000;
// Pinned when the benchmark was written: the whole-pool DuckDB campaign, and
// the fold of the three baselines' outcome digests at 100 000 statements.
constexpr uint64_t kDuckdbPoolOutcome = 0x314cdd86dd7f0fe6ull;
constexpr uint64_t kDuckdbPoolLogicDigest = 0x19ac97ba5a4c5642ull;
constexpr uint64_t kBaselinesPgDigest = 0xfa4574900d5985b0ull;

uint64_t Fold(uint64_t d, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    d ^= (v >> shift) & 0xFFu;
    d *= 0x100000001B3ull;
  }
  return d;
}

// --- one untraced campaign ----------------------------------------------------

struct CampaignRun {
  double wall_s = 0;
  uint64_t statements = 0;
  uint64_t failed = 0;  // statements without a deterministic outcome
  uint64_t outcome_digest = 0;
  uint64_t bug_digest = 0;
  uint64_t logic_digest = 0;
  int bugs = 0;
  int logic_bugs = 0;
  int logic_checks = 0;
  int logic_false_positives = 0;
  int sql_errors = 0;
  soft::fleet::FleetStats fleet;
  std::vector<CampaignResult> tools;  // baselines: one result per tool
  std::vector<double> tool_wall_s;
};

void Summarize(const CampaignResult& r, CampaignRun& run) {
  run.statements = static_cast<uint64_t>(r.statements_executed);
  run.failed = static_cast<uint64_t>(r.watchdog_timeouts);
  run.outcome_digest = soft::DigestCampaignResult(r);
  run.bug_digest = soft::DigestBugInventory(r);
  run.logic_digest = soft::DigestLogicOutcome(r);
  run.bugs = static_cast<int>(r.unique_bugs.size());
  run.logic_bugs = static_cast<int>(r.logic_bugs.size());
  run.logic_checks = r.logic_checks;
  run.logic_false_positives = r.logic_false_positives;
  run.sql_errors = r.sql_errors;
}

bool RunCampaign(const Workload& w, uint64_t seed, CampaignRun& run, std::string& error) {
  const CampaignOptions options = OptionsFor(w, seed);
  const uint64_t start = NowNs();
  if (w.kind == Kind::kSerial) {
    const CampaignResult r = soft::RunShardedSoftCampaign(w.dialect, options, 1);
    run.wall_s = static_cast<double>(NowNs() - start) / 1e9;
    Summarize(r, run);
    return true;
  }
  if (w.kind == Kind::kFleet) {
    soft::fleet::FleetOptions fleet;
    fleet.socket_path = "softbench-fleet.sock";  // relative: inside the run directory
    fleet.workers = w.workers;
    fleet.units = w.units;
    soft::Result<soft::fleet::FleetOutcome> outcome =
        soft::fleet::RunFleetCampaign(w.dialect, options, fleet);
    run.wall_s = static_cast<double>(NowNs() - start) / 1e9;
    if (!outcome.ok()) {
      error = "fleet campaign failed: " + outcome.status().message();
      return false;
    }
    Summarize(outcome->result, run);
    run.fleet = outcome->stats;
    // A unit re-executed after a reclaim or steal repeats its statements;
    // count them (at the mean unit size) as statements without a
    // deterministic outcome.
    const uint64_t repeated_units = run.fleet.leases_reclaimed + run.fleet.leases_stolen;
    run.failed += repeated_units * run.statements / static_cast<uint64_t>(w.units);
    return true;
  }
  uint64_t digest = 0xCBF29CE484222325ull;
  for (const char* tool : kBaselineTools) {
    const uint64_t tool_start = NowNs();
    std::unique_ptr<soft::Database> db = soft::MakeDialect(w.dialect);
    const CampaignResult r = soft::MakeTool(tool)->Run(*db, options);
    run.tool_wall_s.push_back(static_cast<double>(NowNs() - tool_start) / 1e9);
    run.statements += static_cast<uint64_t>(r.statements_executed);
    run.failed += static_cast<uint64_t>(r.watchdog_timeouts);
    run.bugs += static_cast<int>(r.unique_bugs.size());
    run.sql_errors += r.sql_errors;
    digest = Fold(digest, soft::DigestCampaignResult(r));
    run.tools.push_back(r);
  }
  run.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  run.outcome_digest = digest;
  return true;
}

// Checks one campaign's outputs against what the workload must produce.
void CheckCampaign(const Workload& w, uint64_t seed, bool smoke, const CampaignRun& run,
                   Gate& gate) {
  const std::string at = w.name + " seed " + std::to_string(seed);
  if (w.kind != Kind::kBaselines && w.oracles.empty() && !smoke) {
    gate.Expect(run.bugs == soft::ExpectedBugCount(w.dialect),
                at + ": found " + std::to_string(run.bugs) + "/" +
                    std::to_string(soft::ExpectedBugCount(w.dialect)) + " bugs");
  }
  if (!w.oracles.empty()) {
    gate.Expect(run.logic_false_positives == 0, at + ": logic false positives");
    if (!smoke) {
      gate.Expect(run.logic_bugs == soft::ExpectedLogicBugCount(w.dialect),
                  at + ": found " + std::to_string(run.logic_bugs) + " logic bugs");
    }
  }
  if (seed != 1 || smoke) {
    return;
  }
  if (w.kind == Kind::kSerial && w.oracles.empty()) {
    gate.ExpectDigest(run.outcome_digest, kTable4SerialOutcome, at + ": outcome digest");
    gate.ExpectDigest(run.bug_digest, kVirtuosoBugDigest, at + ": bug digest");
  } else if (w.kind == Kind::kFleet) {
    gate.ExpectDigest(run.outcome_digest, kTable4FleetOutcome, at + ": outcome digest");
    gate.ExpectDigest(run.bug_digest, kVirtuosoBugDigest, at + ": bug digest");
  } else if (!w.oracles.empty()) {
    if (w.budget == kDuckdbPinnedBudget) {
      gate.ExpectDigest(run.logic_digest, kDuckdbLogicDigest, at + ": logic digest");
    } else {
      gate.ExpectDigest(run.outcome_digest, kDuckdbPoolOutcome, at + ": outcome digest");
      gate.ExpectDigest(run.logic_digest, kDuckdbPoolLogicDigest, at + ": logic digest");
    }
  } else {
    gate.ExpectDigest(run.outcome_digest, kBaselinesPgDigest, at + ": outcome digest");
  }
}

// --- metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

class Metrics {
 public:
  void Declare(const std::string& name, const std::string& unit) {
    index_[name] = list_.size();
    list_.push_back(Metric{name, unit, 0});
  }
  void Set(const std::string& name, double value) {
    const auto it = index_.find(name);
    if (it == index_.end()) {
      std::fprintf(stderr, "softbench: internal error: undeclared metric %s\n", name.c_str());
      std::abort();
    }
    list_[it->second].value = value;
  }
  const std::vector<Metric>& list() const { return list_; }

 private:
  std::map<std::string, size_t> index_;
  std::vector<Metric> list_;
};

void DeclareEndToEnd(Metrics& m) {
  m.Declare("setup_s", "s");
  m.Declare("campaign_s", "s");
  m.Declare("stmts_per_s", "1/s");
  m.Declare("peak_rss_mb", "MB");
}

const char* const kPatternKeys[][2] = {
    {"P1.2", "p1_2"}, {"P1.3", "p1_3"}, {"P1.4", "p1_4"}, {"P2.1", "p2_1"},
    {"P2.2", "p2_2"}, {"P2.3", "p2_3"}, {"P3.1", "p3_1"}, {"P3.2", "p3_2"},
    {"P3.3", "p3_3"}, {"seed", "seed"}, {"logic-seed", "seed"}};
const char* const kOracleNames[] = {"eet", "diff", "norec", "tlp"};

void DeclarePerLayer(Metrics& m) {
  m.Declare("dialects.construct_ms", "ms");
  m.Declare("dialects.instances", "count");
  m.Declare("soft.collect_ms", "ms");
  m.Declare("soft.generate_ms", "ms");
  m.Declare("soft.pool_cases", "count");
  m.Declare("soft.dedup_ratio", "ratio");
  m.Declare("soft.self_ms", "ms");
  m.Declare("sqlparser.parse_us_p50", "us");
  m.Declare("sqlparser.parse_us_p999", "us");
  m.Declare("sqlparser.parse_ms_sum", "ms");
  m.Declare("engine.execute_us_p50", "us");
  m.Declare("engine.execute_us_p999", "us");
  m.Declare("engine.execute_ms_sum", "ms");
  m.Declare("engine.tail_share", "ratio");
  m.Declare("engine.tail_stmts", "count");
  for (const auto& [pattern, key] : kPatternKeys) {
    if (std::strcmp(pattern, "logic-seed") != 0) {
      m.Declare(std::string("engine.execute_ms.") + key, "ms");
    }
  }
  m.Declare("engine.statements", "count");
  m.Declare("engine.sql_error_ratio", "ratio");
  m.Declare("engine.stage_ms.parse", "ms");
  m.Declare("engine.stage_ms.optimize", "ms");
  m.Declare("engine.stage_ms.execute", "ms");
  for (const char* key : kBaselineKeys) {
    m.Declare(std::string("baselines.") + key + ".us_per_stmt", "us");
  }
  for (const char* oracle : kOracleNames) {
    const std::string base = std::string("logic_oracle.") + oracle;
    m.Declare(base + ".check_ms_sum", "ms");
    m.Declare(base + ".check_us_p999", "us");
    m.Declare(base + ".in_scope_ratio", "ratio");
  }
  m.Declare("logic_oracle.observe_ms_sum", "ms");
  m.Declare("logic_oracle.setup_ms", "ms");
  m.Declare("parallel_runner.unit_ms_p50", "ms");
  m.Declare("parallel_runner.unit_ms_max", "ms");
  m.Declare("parallel_runner.unit_imbalance", "ratio");
  m.Declare("parallel_runner.merge_ms", "ms");
  m.Declare("wire.result_bytes", "bytes");
  m.Declare("wire.encode_ms", "ms");
  m.Declare("wire.decode_ms", "ms");
  m.Declare("fleet.leases_granted", "count");
  m.Declare("fleet.heartbeats", "count");
  m.Declare("fleet.leases_reclaimed", "count");
  m.Declare("fleet.leases_stolen", "count");
  m.Declare("fleet.units_run_locally", "count");
  m.Declare("fleet.overhead_s", "s");
  m.Declare("campaign.bugs_found", "count");
  m.Declare("campaign.logic_bugs_found", "count");
  m.Declare("campaign.logic_checks_per_s", "1/s");
  m.Declare("trace.campaign_s", "s");
  m.Declare("trace.remainder_ms", "ms");
  m.Declare("trace.overhead_ratio", "ratio");
}

// Sample counts behind each percentile metric, for the results file.
struct SampleNote {
  std::string metric;
  size_t samples = 0;
  double quantile = 0;
};

double PeakRssMb(bool include_children) {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  long kb = self.ru_maxrss;
  if (include_children) {
    rusage children{};
    getrusage(RUSAGE_CHILDREN, &children);
    kb = std::max(kb, children.ru_maxrss);
  }
  return static_cast<double>(kb) / 1024.0;
}

// --- the per-layer ledger ------------------------------------------------------

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// Layer of each span name; self times are summed per layer.
const char* LayerOf(const std::string& name) {
  if (name == "MakeDialect") return "dialects";
  if (name == "ParseStatement") return "sqlparser";
  if (name == "Database::Execute") return "engine";
  if (name.rfind("LogicOracle::", 0) == 0 || name == "MakeLogicOracles") return "logic_oracle";
  if (name == "ExecuteShardPlan" || name == "MergeShardResults") return "parallel_runner";
  if (name == "WriteResultBlock" || name == "ConsumeResultLine") return "wire";
  if (name == "Fuzzer::Run") return "baselines";
  if (name == "campaign") return "remainder";
  return "soft";
}

std::map<std::string, uint64_t> SelfByLayer(const SpanRecorder& recorder) {
  std::map<std::string, uint64_t> layers;
  const std::vector<uint64_t> self = recorder.SelfNs();
  for (size_t i = 0; i < recorder.spans().size(); ++i) {
    layers[LayerOf(recorder.spans()[i].name)] += self[i];
  }
  return layers;
}

void SetPercentile(Metrics& m, std::vector<SampleNote>& notes, const std::string& name,
                   const std::vector<uint64_t>& ns, double q) {
  double used = 0;
  m.Set(name, Percentile(ns, q, &used) / 1000.0);
  notes.push_back(SampleNote{name, ns.size(), used});
}

// Per-statement engine numbers from the statements' durations.
void SetStatementStats(Metrics& m, std::vector<SampleNote>& notes,
                       const std::vector<uint64_t>& statement_ns) {
  SetPercentile(m, notes, "engine.execute_us_p50", statement_ns, 0.5);
  SetPercentile(m, notes, "engine.execute_us_p999", statement_ns, 0.999);
  uint64_t sum = 0, tail = 0, tail_stmts = 0;
  for (const uint64_t ns : statement_ns) {
    sum += ns;
    if (ns > 1000000) {  // the tail: statements over 1 ms
      tail += ns;
      ++tail_stmts;
    }
  }
  m.Set("engine.execute_ms_sum", Ms(sum));
  m.Set("engine.tail_share", sum == 0 ? 0 : static_cast<double>(tail) / static_cast<double>(sum));
  m.Set("engine.tail_stmts", static_cast<double>(tail_stmts));
  m.Set("engine.statements", static_cast<double>(statement_ns.size()));
}

void SetStageMs(Metrics& m, const soft::telemetry::CampaignTelemetry& telemetry) {
  for (size_t i = 0; i < soft::telemetry::kStageCount; ++i) {
    m.Set("engine.stage_ms." + std::string(soft::telemetry::kStageKeys[i]),
          Ms(telemetry.stage_latency[i].total_ns));
  }
}

// Fills the set-up, parse, engine and oracle metrics from a SOFT replay.
void LedgerFromReplay(const SpanRecorder& rec, const ReplayInfo& info,
                      const CampaignResult& result, Metrics& m,
                      std::vector<SampleNote>& notes) {
  std::map<std::string, NameTotals> totals = TotalsByName(rec);
  m.Set("dialects.construct_ms", Ms(totals["MakeDialect"].total_ns));
  m.Set("soft.collect_ms", Ms(totals["SeedSuiteFor"].total_ns + totals["CollectCorpus"].total_ns));
  m.Set("soft.generate_ms", Ms(totals["PatternEngine::GenerateAll"].total_ns));
  m.Set("soft.pool_cases", static_cast<double>(info.pool_cases));
  m.Set("soft.dedup_ratio", info.generated == 0 ? 0
                                                : static_cast<double>(info.pool_cases) /
                                                      static_cast<double>(info.generated));
  const NameTotals& parse = totals["ParseStatement"];
  SetPercentile(m, notes, "sqlparser.parse_us_p50", parse.durations_ns, 0.5);
  SetPercentile(m, notes, "sqlparser.parse_us_p999", parse.durations_ns, 0.999);
  m.Set("sqlparser.parse_ms_sum", Ms(parse.total_ns));

  // Campaign statements only (the prerequisites are set-up).
  std::vector<uint64_t> execute_ns;
  std::map<std::string, uint64_t> by_pattern;
  for (const Span& span : rec.spans()) {
    if (std::strcmp(span.name, "Database::Execute") != 0 || span.arg == "prerequisite") {
      continue;
    }
    execute_ns.push_back(span.DurNs());
    by_pattern[span.arg] += span.DurNs();
  }
  SetStatementStats(m, notes, execute_ns);
  std::map<std::string, double> pattern_ms;
  for (const auto& [pattern, key] : kPatternKeys) {
    pattern_ms[key] += Ms(by_pattern[pattern]);
  }
  for (const auto& [key, ms] : pattern_ms) {
    m.Set("engine.execute_ms." + key, ms);
  }
  m.Set("engine.sql_error_ratio",
        result.statements_executed == 0
            ? 0
            : static_cast<double>(result.sql_errors) / result.statements_executed);
  SetStageMs(m, result.telemetry);

  std::map<std::string, std::vector<uint64_t>> check_ns;
  std::map<std::string, uint64_t> check_sum;
  uint64_t observe_ns = 0;
  for (const Span& span : rec.spans()) {
    if (std::strcmp(span.name, "LogicOracle::Check") == 0) {
      check_ns[span.arg].push_back(span.DurNs());
      check_sum[span.arg] += span.DurNs();
    } else if (std::strcmp(span.name, "LogicOracle::ObserveSideEffect") == 0) {
      observe_ns += span.DurNs();
    }
  }
  for (const char* oracle : kOracleNames) {
    const std::string base = std::string("logic_oracle.") + oracle;
    m.Set(base + ".check_ms_sum", Ms(check_sum[oracle]));
    SetPercentile(m, notes, base + ".check_us_p999", check_ns[oracle], 0.999);
    const auto it = info.oracle_checks.find(oracle);
    if (it != info.oracle_checks.end() && it->second.first > 0) {
      m.Set(base + ".in_scope_ratio", static_cast<double>(it->second.second) /
                                          static_cast<double>(it->second.first));
    }
  }
  m.Set("logic_oracle.observe_ms_sum", Ms(observe_ns));
  m.Set("logic_oracle.setup_ms", Ms(totals["MakeLogicOracles"].total_ns));
}

// --- run state shared by both modes -------------------------------------------

struct RunContext {
  Workload w;
  uint64_t seed = 1;
  double seconds = 10;
  bool smoke = false;
  std::string results_dir = ".";
  std::string commit = "unknown";
  Gate gate;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<SampleNote> notes;
  std::vector<std::string> report;     // human-readable lines
  std::map<std::string, std::string> digests;
  std::vector<double> campaign_samples_s;
  std::vector<double> setup_samples_s;
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void Note(RunContext& ctx, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void Note(RunContext& ctx, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  ctx.report.emplace_back(buf);
}

// Set-up of the workload, through the program's public calls: dialect,
// corpus, prerequisites, oracle siblings and case pool for the SOFT
// workloads; the three fresh dialect instances for the baselines (a
// fraction of a millisecond, so one sample averages 20 of them).
double TimeSetup(const Workload& w, uint64_t seed) {
  if (w.kind == Kind::kBaselines) {
    constexpr int kBatch = 20;
    const uint64_t start = NowNs();
    for (int batch = 0; batch < kBatch; ++batch) {
      for (size_t i = 0; i < std::size(kBaselineTools); ++i) {
        std::unique_ptr<soft::Database> db = soft::MakeDialect(w.dialect);
      }
    }
    return static_cast<double>(NowNs() - start) / 1e9 / kBatch;
  }
  soft::telemetry::CampaignTelemetry telemetry;
  const uint64_t start = NowNs();
  CasePool pool = BuildCasePool(w.dialect, OptionsFor(w, seed), nullptr, &telemetry);
  const double s = static_cast<double>(NowNs() - start) / 1e9;
  return s;  // the pool is released outside the timed region
}

// --- --trace 0 -----------------------------------------------------------------

void MeasureEndToEnd(RunContext& ctx, Metrics& m) {
  const Workload& w = ctx.w;
  // Set-up, several times: its median is setup_s.
  const int setup_reps = w.kind == Kind::kBaselines ? 21 : 11;
  for (int i = 0; i < setup_reps; ++i) {
    ctx.setup_samples_s.push_back(TimeSetup(w, ctx.seed));
  }

  // Campaigns for --seconds: one more starts only when the median so far
  // says it ends before the deadline (with a tenth of slack). A campaign
  // longer than --seconds still runs once.
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(ctx.seconds * 1.1e9);
  std::vector<double> rates;
  CampaignRun first;
  for (int rep = 0;; ++rep) {
    CampaignRun run;
    std::string error;
    if (!RunCampaign(w, ctx.seed, run, error)) {
      ctx.gate.Expect(false, w.name + ": " + error);
      ctx.failed += 1;
      ctx.attempted += 1;
      break;
    }
    ctx.attempted += run.statements;
    ctx.failed += run.failed;
    ctx.campaign_samples_s.push_back(run.wall_s);
    rates.push_back(static_cast<double>(run.statements) / run.wall_s);
    if (rep == 0) {
      first = run;
      CheckCampaign(w, ctx.seed, ctx.smoke, run, ctx.gate);
    } else {
      ctx.gate.Expect(run.outcome_digest == first.outcome_digest,
                      w.name + ": repetition " + std::to_string(rep) +
                          " changed the outcome digest");
    }
    const double median_ns = Median(ctx.campaign_samples_s) * 1e9;
    if (ctx.smoke || static_cast<double>(NowNs()) + median_ns > static_cast<double>(deadline)) {
      break;
    }
  }

  m.Set("setup_s", Median(ctx.setup_samples_s));
  m.Set("campaign_s", Median(ctx.campaign_samples_s));
  m.Set("stmts_per_s", Median(rates));
  m.Set("peak_rss_mb", PeakRssMb(w.kind == Kind::kFleet));

  ctx.digests["outcome"] = Hex(first.outcome_digest);
  if (w.kind != Kind::kBaselines) {
    ctx.digests["bug"] = Hex(first.bug_digest);
  }
  if (!w.oracles.empty()) {
    ctx.digests["logic"] = Hex(first.logic_digest);
  }
  Note(ctx, "campaign: %llu statements, %d unique bugs, %d logic bugs, %d logic checks, "
            "%d SQL errors, %zu repetitions",
       static_cast<unsigned long long>(first.statements), first.bugs, first.logic_bugs,
       first.logic_checks, first.sql_errors, ctx.campaign_samples_s.size());
  const double campaign_s = Median(ctx.campaign_samples_s);
  Note(ctx, "also: bugs_found %d  logic_bugs_found %d  logic_checks_per_s %.1f  "
            "failed_ratio %.6f",
       first.bugs, first.logic_bugs, campaign_s > 0 ? first.logic_checks / campaign_s : 0.0,
       ctx.attempted == 0 ? 0.0
                          : static_cast<double>(ctx.failed) / static_cast<double>(ctx.attempted));
  for (const auto& [key, value] : ctx.digests) {
    Note(ctx, "%s digest: %s", key.c_str(), value.c_str());
  }
}

// --- --trace 1 -----------------------------------------------------------------

void LedgerSerial(RunContext& ctx, Metrics& m, const CampaignRun& untraced,
                  SpanRecorder& rec) {
  const Workload& w = ctx.w;
  ReplayInfo info;
  const CampaignResult replay = ReplaySoftCampaign(w.dialect, OptionsFor(w, ctx.seed), &rec, &info);
  CampaignRun traced;
  Summarize(replay, traced);
  ctx.gate.ExpectDigest(traced.outcome_digest, untraced.outcome_digest,
                        w.name + ": traced replay vs untraced outcome digest");
  ctx.gate.ExpectDigest(traced.logic_digest, untraced.logic_digest,
                        w.name + ": traced replay vs untraced logic digest");
  ctx.gate.Expect(traced.statements == untraced.statements && traced.bugs == untraced.bugs &&
                      traced.sql_errors == untraced.sql_errors &&
                      traced.logic_checks == untraced.logic_checks,
                  w.name + ": traced replay counters differ from the untraced campaign");
  ctx.attempted += traced.statements;
  ctx.failed += traced.failed;
  LedgerFromReplay(rec, info, replay, m, ctx.notes);
  m.Set("dialects.instances",
        1.0 + (std::find(w.oracles.begin(), w.oracles.end(), "all") != w.oracles.end()
                   ? static_cast<double>(soft::AllDialectNames().size() - 1)
                   : 0.0));

  // The campaign root is the only root span: its duration is the traced
  // campaign time, and its self time is what no layer accounts for.
  const uint64_t campaign_ns = rec.spans().front().DurNs();
  const std::map<std::string, uint64_t> layers = SelfByLayer(rec);
  m.Set("soft.self_ms", Ms(layers.count("soft") ? layers.at("soft") : 0));
  m.Set("trace.campaign_s", static_cast<double>(campaign_ns) / 1e9);
  m.Set("trace.remainder_ms", Ms(layers.count("remainder") ? layers.at("remainder") : 0));
  m.Set("trace.overhead_ratio", static_cast<double>(campaign_ns) / 1e9 / untraced.wall_s);
  Note(ctx, "self time by layer (traced campaign %.3f s, untraced %.3f s):",
       static_cast<double>(campaign_ns) / 1e9, untraced.wall_s);
  for (const auto& [layer, ns] : layers) {
    Note(ctx, "  %-16s %10.1f ms  %5.1f%%", layer.c_str(), Ms(ns),
         100.0 * static_cast<double>(ns) / static_cast<double>(campaign_ns));
  }
}

void LedgerFleet(RunContext& ctx, Metrics& m, const CampaignRun& fleet_run,
                 SpanRecorder& rec) {
  const Workload& w = ctx.w;
  const CampaignOptions options = OptionsFor(w, ctx.seed);
  const uint64_t start = NowNs();
  const ScopedSpan root(&rec, "campaign", w.dialect);
  {
    // One unit's set-up, for the set-up layers (every unit pays it).
    const ScopedSpan span(&rec, "setup");
    soft::telemetry::CampaignTelemetry telemetry;
    CasePool pool = BuildCasePool(w.dialect, options, &rec, &telemetry);
    m.Set("soft.pool_cases", static_cast<double>(pool.cases.size()));
    m.Set("soft.dedup_ratio",
          static_cast<double>(pool.cases.size()) / static_cast<double>(pool.generated));
  }
  // The fleet's 16-unit plan, in process and one unit at a time: execute,
  // encode and decode each unit's wire block, then merge.
  const std::vector<soft::ShardPlan> plans =
      soft::PlanShards(options, w.units, soft::ShardMode::kPartitionCases);
  const auto make_fuzzer = [] { return std::make_unique<soft::SoftFuzzer>(); };
  const auto make_db = [&w] { return soft::MakeDialect(w.dialect); };
  std::vector<soft::ShardResult> decoded;
  uint64_t bytes = 0;
  for (const soft::ShardPlan& plan : plans) {
    soft::ShardResult unit;
    {
      const ScopedSpan span(&rec, "ExecuteShardPlan", std::to_string(plan.shard));
      unit = soft::ExecuteShardPlan(make_fuzzer, make_db, plan);
    }
    std::vector<std::string> lines;
    {
      const ScopedSpan span(&rec, "WriteResultBlock", std::to_string(plan.shard));
      soft::wire::WriteResultBlock(
          [&lines](const std::string& line) {
            lines.push_back(line);
            return true;
          },
          unit.result, unit.coverage);
    }
    for (const std::string& line : lines) {
      bytes += line.size() + 1;
    }
    soft::wire::ResultBlock block;
    {
      const ScopedSpan span(&rec, "ConsumeResultLine", std::to_string(plan.shard));
      for (const std::string& line : lines) {
        soft::wire::ConsumeResultLine(line, block);
      }
    }
    ctx.gate.Expect(block.complete, w.name + ": unit " + std::to_string(plan.shard) +
                                        " wire block did not round-trip");
    soft::ShardResult back;
    back.result = std::move(block.result);
    back.coverage = std::move(block.coverage);
    decoded.push_back(std::move(back));
  }
  CampaignResult merged;
  {
    const ScopedSpan span(&rec, "MergeShardResults");
    merged = soft::MergeShardResults(std::move(decoded));
  }
  CampaignRun replay;
  Summarize(merged, replay);
  ctx.gate.ExpectDigest(replay.outcome_digest, fleet_run.outcome_digest,
                        w.name + ": in-process unit replay vs fleet outcome digest");
  ctx.attempted += replay.statements;

  std::map<std::string, NameTotals> totals = TotalsByName(rec);
  m.Set("dialects.construct_ms", Ms(totals["MakeDialect"].total_ns));
  m.Set("dialects.instances", static_cast<double>(w.units));
  m.Set("soft.collect_ms", Ms(totals["SeedSuiteFor"].total_ns + totals["CollectCorpus"].total_ns));
  m.Set("soft.generate_ms", Ms(totals["PatternEngine::GenerateAll"].total_ns));
  std::vector<uint64_t> sorted = totals["ExecuteShardPlan"].durations_ns;
  std::sort(sorted.begin(), sorted.end());
  const uint64_t unit_sum = totals["ExecuteShardPlan"].total_ns;
  const double mean_ms = Ms(unit_sum) / static_cast<double>(sorted.size());
  m.Set("parallel_runner.unit_ms_p50", Ms(sorted[(sorted.size() - 1) / 2]));
  m.Set("parallel_runner.unit_ms_max", Ms(sorted.back()));
  m.Set("parallel_runner.unit_imbalance", Ms(sorted.back()) / mean_ms);
  m.Set("parallel_runner.merge_ms", Ms(totals["MergeShardResults"].total_ns));
  m.Set("wire.result_bytes", static_cast<double>(bytes));
  m.Set("wire.encode_ms", Ms(totals["WriteResultBlock"].total_ns));
  m.Set("wire.decode_ms", Ms(totals["ConsumeResultLine"].total_ns));
  const soft::fleet::FleetStats& stats = fleet_run.fleet;
  m.Set("fleet.leases_granted", static_cast<double>(stats.leases_granted));
  m.Set("fleet.heartbeats", static_cast<double>(stats.heartbeats));
  m.Set("fleet.leases_reclaimed", static_cast<double>(stats.leases_reclaimed));
  m.Set("fleet.leases_stolen", static_cast<double>(stats.leases_stolen));
  m.Set("fleet.units_run_locally", static_cast<double>(stats.units_run_locally));
  m.Set("fleet.overhead_s",
        fleet_run.wall_s - static_cast<double>(unit_sum) / 1e9 / static_cast<double>(w.workers));
  m.Set("engine.statements", static_cast<double>(replay.statements));
  m.Set("engine.sql_error_ratio", static_cast<double>(replay.sql_errors) /
                                      static_cast<double>(std::max<uint64_t>(1, replay.statements)));
  SetStageMs(m, merged.telemetry);
  Note(ctx, "fleet %.3f s over %d workers; units: sum %.1f ms, p50 %.1f ms, max %.1f ms; "
            "wire %llu bytes",
       fleet_run.wall_s, w.workers, Ms(unit_sum), Ms(sorted[(sorted.size() - 1) / 2]),
       Ms(sorted.back()), static_cast<unsigned long long>(bytes));

  // Held-out-seed parity: the serial campaign finds the fleet's bug set.
  CampaignRun serial;
  Workload serial_w = w;
  serial_w.kind = Kind::kSerial;
  std::string error;
  RunCampaign(serial_w, ctx.seed, serial, error);
  ctx.gate.ExpectDigest(serial.bug_digest, fleet_run.bug_digest,
                        w.name + ": serial vs fleet bug digest");
  ctx.attempted += serial.statements;
  m.Set("trace.campaign_s", static_cast<double>(NowNs() - start) / 1e9);
}

void LedgerBaselines(RunContext& ctx, Metrics& m, const CampaignRun& untraced,
                     SpanRecorder& rec) {
  const Workload& w = ctx.w;
  CampaignOptions options = OptionsFor(w, ctx.seed);
  options.trace_sample = 1;  // the program's own statement and stage spans
  const uint64_t start = NowNs();
  const ScopedSpan root(&rec, "campaign", w.dialect);
  std::vector<uint64_t> statement_ns, parse_ns;
  soft::telemetry::CampaignTelemetry stages;
  uint64_t statements = 0, sql_errors = 0;
  for (size_t i = 0; i < std::size(kBaselineTools); ++i) {
    std::unique_ptr<soft::Database> db;
    {
      const ScopedSpan span(&rec, "MakeDialect", w.dialect);
      db = soft::MakeDialect(w.dialect);
    }
    CampaignResult r;
    {
      const ScopedSpan span(&rec, "Fuzzer::Run", kBaselineTools[i]);
      r = soft::MakeTool(kBaselineTools[i])->Run(*db, options);
    }
    ctx.gate.ExpectDigest(soft::DigestCampaignResult(r),
                          soft::DigestCampaignResult(untraced.tools[i]),
                          w.name + ": traced vs untraced " + kBaselineTools[i] + " digest");
    for (const soft::trace::TraceSpan& span : r.trace.spans) {
      if (span.kind == soft::trace::SpanKind::kStatement) {
        statement_ns.push_back(span.dur_ns);
      } else if (span.kind == soft::trace::SpanKind::kParse) {
        parse_ns.push_back(span.dur_ns);
      }
    }
    stages.MergeFrom(r.telemetry);
    statements += static_cast<uint64_t>(r.statements_executed);
    sql_errors += static_cast<uint64_t>(r.sql_errors);
    m.Set(std::string("baselines.") + kBaselineKeys[i] + ".us_per_stmt",
          untraced.tool_wall_s[i] * 1e6 / std::max(1, untraced.tools[i].statements_executed));
  }
  ctx.attempted += statements;
  std::map<std::string, NameTotals> totals = TotalsByName(rec);
  m.Set("dialects.construct_ms", Ms(totals["MakeDialect"].total_ns));
  m.Set("dialects.instances", static_cast<double>(std::size(kBaselineTools)));
  SetPercentile(m, ctx.notes, "sqlparser.parse_us_p50", parse_ns, 0.5);
  SetPercentile(m, ctx.notes, "sqlparser.parse_us_p999", parse_ns, 0.999);
  SetStatementStats(m, ctx.notes, statement_ns);
  m.Set("engine.sql_error_ratio",
        static_cast<double>(sql_errors) / static_cast<double>(std::max<uint64_t>(1, statements)));
  SetStageMs(m, stages);
  m.Set("sqlparser.parse_ms_sum", Ms(stages.stage_latency[0].total_ns));
  m.Set("trace.campaign_s", static_cast<double>(NowNs() - start) / 1e9);
}

void MeasureLayers(RunContext& ctx, Metrics& m) {
  const Workload& w = ctx.w;
  // The untraced reference the traced run must reproduce.
  CampaignRun untraced;
  std::string error;
  if (!RunCampaign(w, ctx.seed, untraced, error)) {
    ctx.gate.Expect(false, w.name + ": " + error);
    return;
  }
  CheckCampaign(w, ctx.seed, ctx.smoke, untraced, ctx.gate);
  ctx.attempted += untraced.statements;
  ctx.failed += untraced.failed;
  if (!w.oracles.empty() && ctx.seed == 1 && !ctx.smoke) {
    // The pinned logic digest is that of the 20 000-statement campaign.
    Workload pinned = w;
    pinned.budget = kDuckdbPinnedBudget;
    CampaignRun run;
    RunCampaign(pinned, 1, run, error);
    CheckCampaign(pinned, 1, false, run, ctx.gate);
    ctx.attempted += run.statements;
  }
  m.Set("campaign.bugs_found", untraced.bugs);
  m.Set("campaign.logic_bugs_found", untraced.logic_bugs);
  m.Set("campaign.logic_checks_per_s", untraced.logic_checks / untraced.wall_s);

  SpanRecorder rec(w.name + "/seed" + std::to_string(ctx.seed));
  if (w.kind == Kind::kSerial) {
    LedgerSerial(ctx, m, untraced, rec);
  } else if (w.kind == Kind::kFleet) {
    LedgerFleet(ctx, m, untraced, rec);
  } else {
    LedgerBaselines(ctx, m, untraced, rec);
  }
  const std::string trace_path = ctx.results_dir + "/trace-" + w.name + "-seed" +
                                 std::to_string(ctx.seed) + (ctx.smoke ? "-smoke" : "") + ".json";
  ctx.gate.Expect(rec.WriteChromeTrace(trace_path), "cannot write " + trace_path);
  Note(ctx, "spans: %zu, Chrome trace: %s", rec.spans().size(), trace_path.c_str());
}

// --- output --------------------------------------------------------------------

void PrintJsonNumber(std::FILE* out, double v) { std::fprintf(out, "%.10g", v); }

void WriteResultsFile(const RunContext& ctx, const Metrics& m, bool traced) {
  const std::string path = ctx.results_dir + "/" + ctx.w.name + "-seed" +
                           std::to_string(ctx.seed) + "-trace" + (traced ? "1" : "0") +
                           (ctx.smoke ? "-smoke" : "") + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return;
  }
  std::fprintf(out, "{\n  \"host\": {\"nproc\": %d, \"build_type\": \"%s\", "
                    "\"compiler\": \"%s\", \"commit\": \"%s\"},\n",
               HostCpus(), SOFTBENCH_BUILD_TYPE, __VERSION__, ctx.commit.c_str());
  std::fprintf(out, "  \"workload\": {\"name\": \"%s\", \"dialect\": \"%s\", \"seed\": %llu, "
                    "\"budget\": %d, \"units\": %d, \"workers\": %d, \"seconds\": %g},\n",
               ctx.w.name.c_str(), ctx.w.dialect.c_str(),
               static_cast<unsigned long long>(ctx.seed), ctx.w.budget, ctx.w.units,
               ctx.w.workers, ctx.seconds);
  std::fprintf(out, "  \"correct\": %s, \"attempted\": %llu, \"failed\": %llu,\n",
               ctx.gate.ok ? "true" : "false", static_cast<unsigned long long>(ctx.attempted),
               static_cast<unsigned long long>(ctx.failed));
  std::fprintf(out, "  \"digests\": {");
  const char* sep = "";
  for (const auto& [key, value] : ctx.digests) {
    std::fprintf(out, "%s\"%s\": \"%s\"", sep, key.c_str(), value.c_str());
    sep = ", ";
  }
  std::fprintf(out, "},\n  \"setup_samples_s\": [");
  sep = "";
  for (const double v : ctx.setup_samples_s) {
    std::fprintf(out, "%s", sep);
    PrintJsonNumber(out, v);
    sep = ", ";
  }
  std::fprintf(out, "],\n  \"campaign_samples_s\": [");
  sep = "";
  for (const double v : ctx.campaign_samples_s) {
    std::fprintf(out, "%s", sep);
    PrintJsonNumber(out, v);
    sep = ", ";
  }
  std::fprintf(out, "],\n  \"percentile_samples\": {");
  sep = "";
  for (const SampleNote& note : ctx.notes) {
    std::fprintf(out, "%s\"%s\": {\"samples\": %zu, \"quantile\": %g}", sep,
                 note.metric.c_str(), note.samples, note.quantile);
    sep = ", ";
  }
  std::fprintf(out, "},\n  \"metrics\": {");
  sep = "";
  for (const Metric& metric : m.list()) {
    std::fprintf(out, "%s\n    \"%s\": {\"value\": ", sep, metric.name.c_str());
    PrintJsonNumber(out, metric.value);
    std::fprintf(out, ", \"unit\": \"%s\"}", metric.unit.c_str());
    sep = ",";
  }
  std::fprintf(out, "\n  }\n}\n");
  std::fclose(out);
}

void PrintResult(const RunContext& ctx, const Metrics& m) {
  std::printf("host: nproc=%d build=%s compiler=%s commit=%s\n", HostCpus(),
              SOFTBENCH_BUILD_TYPE, __VERSION__, ctx.commit.c_str());
  for (const std::string& line : ctx.report) {
    std::printf("%s\n", line.c_str());
  }
  for (const Metric& metric : m.list()) {
    std::printf("%-36s %16.6f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              ctx.gate.ok ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, ctx.attempted)),
              static_cast<unsigned long long>(ctx.failed));
  const char* sep = "";
  for (const Metric& metric : m.list()) {
    std::printf("%s\"%s\": {\"value\": ", sep, metric.name.c_str());
    PrintJsonNumber(stdout, metric.value);
    std::printf(", \"unit\": \"%s\"}", metric.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool RunOne(RunContext& ctx, bool traced) {
  Metrics m;
  if (traced) {
    DeclarePerLayer(m);
    MeasureLayers(ctx, m);
  } else {
    DeclareEndToEnd(m);
    MeasureEndToEnd(ctx, m);
  }
  WriteResultsFile(ctx, m, traced);
  PrintResult(ctx, m);
  return ctx.gate.ok;
}

int Usage() {
  std::fprintf(stderr,
               "usage: softbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "                 [--commit <id>] [--results-dir <dir>]\n"
               "       softbench --smoke [--results-dir <dir>]\n"
               "workloads: table4_serial table4_fleet oracle_duckdb baselines_pg\n");
  return 2;
}

}  // namespace
}  // namespace softbench

int main(int argc, char** argv) {
  using namespace softbench;
  std::string workload, results_dir = ".", commit = "unknown";
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--results-dir") {
      results_dir = value;
    } else {
      return Usage();
    }
  }
  if (smoke) {
    // The benchmark's self-test: every workload at a tiny budget, untraced
    // and traced, with every parity check.
    bool ok = true;
    for (const char* name : kWorkloadNames) {
      for (const bool traced : {false, true}) {
        RunContext ctx;
        MakeWorkload(name, true, ctx.w);
        ctx.smoke = true;
        ctx.seed = seed;
        ctx.results_dir = results_dir;
        ctx.commit = commit;
        ok = RunOne(ctx, traced) && ok;
      }
    }
    return ok ? 0 : 1;
  }
  RunContext ctx;
  if (!MakeWorkload(workload, false, ctx.w) || seed == 0 || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  ctx.seed = seed;
  ctx.seconds = seconds;
  ctx.results_dir = results_dir;
  ctx.commit = commit;
  return RunOne(ctx, trace == 1) ? 0 : 1;
}
