// Crash-realistic execution harness (docs/ROBUSTNESS.md): forked-worker
// supervision, the statement watchdog, and checkpoint/resume.
//
//  * Every CrashType round-trips through a real signal in a forked worker
//    back to the exact CrashInfo the simulated path reports.
//  * Real-crash campaigns are bit-identical to simulated campaigns for every
//    dialect, serial and sharded (the determinism contract excludes only
//    wall-clock quantities: found_wall_ns and the stage-latency histograms).
//  * The cooperative watchdog kills pathological statements within its
//    deadline; fuel and row budgets kill deterministically.
//  * Unannounced worker deaths back off and degrade to in-process simulated
//    execution without losing the campaign.
//  * A campaign killed with SIGKILL mid-run resumes from its streamed
//    journal to a bit-identical final result.
//
// NOTE: these tests fork. Keep them out of the TSan lane (`ctest -R
// 'Parallel|GoldenPoc|Telemetry'`); the ASan CI job runs them instead.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/dialects/dialects.h"
#include "src/soft/resume.h"
#include "src/soft/soft_fuzzer.h"
#include "src/soft/worker.h"
#include "src/telemetry/journal.h"
#include "src/util/rng.h"

namespace soft {
namespace {

// All eight Table 4 crash types.
const std::vector<CrashType> kAllCrashTypes = {
    CrashType::kNullPointerDereference, CrashType::kSegmentationViolation,
    CrashType::kUseAfterFree,           CrashType::kHeapBufferOverflow,
    CrashType::kGlobalBufferOverflow,   CrashType::kAssertionFailure,
    CrashType::kStackOverflow,          CrashType::kDivideByZero,
};

// A Database whose fault corpus has exactly one bug per CrashType, each
// triggered by a distinct marker string reaching UPPER.
std::unique_ptr<Database> MakeCrashMatrixDb() {
  EngineConfig config;
  config.name = "crashmatrix";
  auto db = std::make_unique<Database>(config);
  for (size_t i = 0; i < kAllCrashTypes.size(); ++i) {
    BugSpec spec;
    spec.id = 100 + static_cast<int>(i);
    spec.dbms = "crashmatrix";
    spec.function = "UPPER";
    spec.function_type = "string";
    spec.crash = kAllCrashTypes[i];
    spec.pattern = "P1.1";
    spec.stage = Stage::kExecute;
    spec.trigger = TriggerKind::kStringContains;
    spec.param_text = "marker" + std::to_string(i);
    spec.description = "crash matrix bug " + std::to_string(i);
    db->faults().AddBug(spec);
  }
  return db;
}

std::vector<std::string> CrashMatrixScript() {
  std::vector<std::string> script;
  for (size_t i = 0; i < kAllCrashTypes.size(); ++i) {
    script.push_back("SELECT UPPER('marker" + std::to_string(i) + "')");
  }
  script.push_back("SELECT UPPER('harmless')");
  return script;
}

// Minimal deterministic Fuzzer executing a fixed statement list; mirrors the
// counting/dedup/checkpoint conventions of the real execution loops.
class ScriptedFuzzer : public Fuzzer {
 public:
  explicit ScriptedFuzzer(std::vector<std::string> script) : script_(std::move(script)) {}
  std::string name() const override { return "scripted"; }

  CampaignResult Run(Database& db, const CampaignOptions& options) override {
    db.set_statement_limits(options.statement_limits);
    const Rng rng(options.seed);  // never advanced: a constant, seed-bound cursor
    CampaignResult result;
    result.tool = name();
    result.dialect = db.config().name;
    uint64_t dedup_digest = kDedupDigestSeed;
    std::set<int> found_ids;
    for (const std::string& sql : script_) {
      if (result.statements_executed >= options.max_statements) {
        break;
      }
      const StatementResult r = db.Execute(sql);
      ++result.statements_executed;
      if (r.crashed()) {
        ++result.crashes_observed;
        if (found_ids.insert(r.crash->bug_id).second) {
          FoundBug bug;
          bug.crash = *r.crash;
          bug.poc_sql = sql;
          bug.found_by = name();
          bug.statements_until_found = result.statements_executed;
          result.unique_bugs.push_back(std::move(bug));
          dedup_digest = DedupDigestStep(dedup_digest, r.crash->bug_id);
        }
      } else if (r.status.code() == StatusCode::kTimeout) {
        ++result.watchdog_timeouts;
      } else if (r.status.code() == StatusCode::kResourceExhausted) {
        ++result.false_positives;
      } else if (!r.ok()) {
        ++result.sql_errors;
      }
      if (options.checkpoint_every > 0 && options.checkpoint_sink &&
          result.statements_executed % options.checkpoint_every == 0) {
        options.checkpoint_sink(
            MakeCheckpoint(options, result, rng.StateFingerprint(), dedup_digest));
      }
    }
    result.functions_triggered = db.coverage().TriggeredFunctionCount();
    result.branches_covered = db.coverage().CoveredBranchCount();
    return result;
  }

 private:
  std::vector<std::string> script_;
};

// Bit-identical comparison under the determinism contract: everything except
// found_wall_ns and the (wall-clock) stage-latency histograms.
void ExpectSameCampaign(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.tool, b.tool);
  EXPECT_EQ(a.dialect, b.dialect);
  EXPECT_EQ(a.statements_executed, b.statements_executed);
  EXPECT_EQ(a.sql_errors, b.sql_errors);
  EXPECT_EQ(a.crashes_observed, b.crashes_observed);
  EXPECT_EQ(a.false_positives, b.false_positives);
  EXPECT_EQ(a.watchdog_timeouts, b.watchdog_timeouts);
  EXPECT_EQ(a.functions_triggered, b.functions_triggered);
  EXPECT_EQ(a.branches_covered, b.branches_covered);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.shard_statements, b.shard_statements);
  EXPECT_EQ(a.telemetry.patterns, b.telemetry.patterns);
  ASSERT_EQ(a.unique_bugs.size(), b.unique_bugs.size());
  for (size_t i = 0; i < a.unique_bugs.size(); ++i) {
    const FoundBug& x = a.unique_bugs[i];
    const FoundBug& y = b.unique_bugs[i];
    EXPECT_TRUE(x.crash == y.crash) << "bug " << i << ": " << x.crash.Summary()
                                    << " vs " << y.crash.Summary();
    EXPECT_EQ(x.poc_sql, y.poc_sql);
    EXPECT_EQ(x.found_by, y.found_by);
    EXPECT_EQ(x.statements_until_found, y.statements_until_found);
    EXPECT_EQ(x.shard, y.shard);
  }
}

// ---------------------------------------------------------------------------
// Crash round-trip through real signals
// ---------------------------------------------------------------------------

TEST(WorkerHarness, AllCrashTypesRoundTripToIdenticalCrashInfo) {
  const std::vector<std::string> script = CrashMatrixScript();
  CampaignOptions options;
  options.max_statements = 100;

  // Simulated reference, in-process.
  ScriptedFuzzer reference_fuzzer(script);
  auto reference_db = MakeCrashMatrixDb();
  const CampaignResult reference = reference_fuzzer.Run(*reference_db, options);
  ASSERT_EQ(reference.unique_bugs.size(), kAllCrashTypes.size());

  // Real crashes in forked workers.
  CampaignOptions real = options;
  real.crash_realism = CrashRealism::kReal;
  const WorkerShardOutcome outcome = RunShardInWorkerProcess(
      [&script] { return std::make_unique<ScriptedFuzzer>(script); },
      [] { return MakeCrashMatrixDb(); }, real);

  // One real signal per crash type, each announce matching the exit signal,
  // plus the final completing worker.
  EXPECT_EQ(outcome.stats.real_crashes, static_cast<int>(kAllCrashTypes.size()));
  EXPECT_EQ(outcome.stats.matched_signals, static_cast<int>(kAllCrashTypes.size()));
  EXPECT_EQ(outcome.stats.mismatched_signals, 0);
  EXPECT_EQ(outcome.stats.unexpected_deaths, 0);
  EXPECT_EQ(outcome.stats.forks, static_cast<int>(kAllCrashTypes.size()) + 1);
  EXPECT_FALSE(outcome.stats.degraded_to_simulated);

  ExpectSameCampaign(reference, outcome.result);
  EXPECT_EQ(outcome.coverage.CoveredBranchCount(), reference.branches_covered);
  EXPECT_EQ(outcome.coverage.TriggeredFunctionCount(), reference.functions_triggered);
}

TEST(WorkerHarness, ExpectedSignalCoversEveryCrashType) {
  for (const CrashType type : kAllCrashTypes) {
    const int sig = ExpectedSignalFor(type);
    EXPECT_TRUE(sig == SIGSEGV || sig == SIGABRT || sig == SIGFPE)
        << "unexpected signal " << sig << " for " << CrashTypeName(type);
  }
  EXPECT_EQ(ExpectedSignalFor(CrashType::kAssertionFailure), SIGABRT);
  EXPECT_EQ(ExpectedSignalFor(CrashType::kDivideByZero), SIGFPE);
  EXPECT_EQ(ExpectedSignalFor(CrashType::kStackOverflow), SIGSEGV);
  EXPECT_EQ(ExpectedSignalFor(CrashType::kNullPointerDereference), SIGSEGV);
}

// ---------------------------------------------------------------------------
// Sim/real bit-identity for full SOFT campaigns
// ---------------------------------------------------------------------------

class SimRealIdentityTest : public testing::TestWithParam<std::string> {};

TEST_P(SimRealIdentityTest, RealCrashCampaignMatchesSimulated) {
  const std::string& dialect = GetParam();
  CampaignOptions options;
  options.seed = 7;
  options.max_statements = 600;

  const CampaignResult sim1 = RunShardedSoftCampaign(dialect, options, 1);
  const CampaignResult sim3 = RunShardedSoftCampaign(dialect, options, 3);

  CampaignOptions real = options;
  real.crash_realism = CrashRealism::kReal;
  const CampaignResult real1 = RunShardedSoftCampaign(dialect, real, 1);
  const CampaignResult real3 = RunShardedSoftCampaign(dialect, real, 3);

  ExpectSameCampaign(sim1, real1);
  ExpectSameCampaign(sim3, real3);
  // Some dialects need bigger budgets before their first bug; the prolific
  // ones must actually exercise the real-signal path here (every CrashType's
  // real signal is separately covered by the crash-matrix round-trip test).
  if (dialect == "mariadb" || dialect == "monetdb" || dialect == "duckdb") {
    EXPECT_FALSE(real1.unique_bugs.empty()) << "campaign found nothing to realize";
  }
}

INSTANTIATE_TEST_SUITE_P(AllDialects, SimRealIdentityTest,
                         testing::ValuesIn(AllDialectNames()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// ---------------------------------------------------------------------------
// Statement watchdog
// ---------------------------------------------------------------------------

std::unique_ptr<Database> MakeRowTable(int rows) {
  auto db = std::make_unique<Database>();
  EXPECT_TRUE(db->Execute("CREATE TABLE t (a INT)").ok());
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < rows; ++i) {
    if (i > 0) {
      insert += ",";
    }
    insert += "(" + std::to_string(i) + ")";
  }
  EXPECT_TRUE(db->Execute(insert).ok());
  return db;
}

TEST(StatementWatchdog, DeadlineKillsPathologicalStatementWithinBudget) {
  auto db = MakeRowTable(2000);
  StatementLimits limits;
  limits.deadline_ms = 100;
  db->set_statement_limits(limits);

  // Quadratic: the scalar subquery re-runs its full scan for every outer row
  // (4M row steps) — far past the deadline without the watchdog.
  const auto start = std::chrono::steady_clock::now();
  const StatementResult r = db->Execute("SELECT (SELECT COUNT(*) FROM t) FROM t");
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_EQ(r.status.code(), StatusCode::kTimeout) << r.status.ToString();
  EXPECT_FALSE(r.crashed());
  // Cooperative checks run every 256 watchdog ticks; generous slack for slow
  // (sanitizer) builds, but orders of magnitude under the unbounded runtime.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            5000);

  // The engine stays usable after a timeout.
  limits.deadline_ms = 0;
  db->set_statement_limits(limits);
  EXPECT_TRUE(db->Execute("SELECT COUNT(*) FROM t").ok());
}

TEST(StatementWatchdog, EvalFuelKillsDeterministically) {
  auto db = MakeRowTable(100);
  StatementLimits limits;
  limits.eval_fuel = 500;
  db->set_statement_limits(limits);

  const StatementResult r = db->Execute("SELECT (SELECT COUNT(*) FROM t) FROM t");
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted) << r.status.ToString();

  // Pure count budget: the same statement dies identically every time.
  const StatementResult again = db->Execute("SELECT (SELECT COUNT(*) FROM t) FROM t");
  EXPECT_EQ(again.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.status.message(), again.status.message());

  // A statement within budget still succeeds.
  limits.eval_fuel = -1;
  db->set_statement_limits(limits);
  EXPECT_TRUE(db->Execute("SELECT COUNT(*) FROM t").ok());
}

TEST(StatementWatchdog, RowBudgetKillsWideMaterialization) {
  auto db = MakeRowTable(1000);
  StatementLimits limits;
  limits.max_rows = 100;
  db->set_statement_limits(limits);
  const StatementResult r = db->Execute("SELECT a FROM t");
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted) << r.status.ToString();

  limits.max_rows = 2000;
  db->set_statement_limits(limits);
  EXPECT_TRUE(db->Execute("SELECT a FROM t").ok());
}

TEST(StatementWatchdog, LikeBacktrackingBudgetIsBounded) {
  auto db = std::make_unique<Database>();
  // Exponential-backtracking shape: many '%'s that can never match the tail.
  std::string pattern(40, 'a');
  std::string like;
  for (int i = 0; i < 20; ++i) {
    like += "%a";
  }
  like += "b";
  const auto start = std::chrono::steady_clock::now();
  const StatementResult r =
      db->Execute("SELECT '" + pattern + "' LIKE '" + like + "'");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Either the matcher finishes within its step budget (false) or reports
  // exhaustion — it must never hang.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 30);
  if (!r.ok()) {
    EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted) << r.status.ToString();
  }
}

TEST(StatementWatchdog, CampaignCountsTimeoutsSeparately) {
  // A scripted campaign where one statement times out: it must surface in
  // watchdog_timeouts, not sql_errors or false_positives.
  auto make_db = [] { return MakeRowTable(2000); };
  std::vector<std::string> script = {
      "SELECT COUNT(*) FROM t",
      "SELECT (SELECT COUNT(*) FROM t) FROM t",
      "SELECT COUNT(*) FROM t",
  };
  ScriptedFuzzer fuzzer(script);
  CampaignOptions options;
  options.max_statements = 10;
  options.statement_limits.deadline_ms = 100;
  auto db = make_db();
  const CampaignResult result = fuzzer.Run(*db, options);
  EXPECT_EQ(result.statements_executed, 3);
  EXPECT_EQ(result.watchdog_timeouts, 1);
  EXPECT_EQ(result.sql_errors, 0);
  EXPECT_EQ(result.false_positives, 0);
}

// ---------------------------------------------------------------------------
// Supervision: backoff, degradation, the SIGALRM backstop
// ---------------------------------------------------------------------------

TEST(WorkerSupervision, SilentStartupDeathsRecoverWithBackoff) {
  const std::vector<std::string> script = CrashMatrixScript();
  CampaignOptions options;
  options.max_statements = 100;
  options.crash_realism = CrashRealism::kReal;
  WorkerOptions worker;
  worker.max_consecutive_deaths = 3;
  worker.backoff_initial_ms = 1;
  worker.backoff_max_ms = 4;
  worker.test_silent_deaths = 2;  // fewer than the degradation threshold

  const WorkerShardOutcome outcome = RunShardInWorkerProcess(
      [&script] { return std::make_unique<ScriptedFuzzer>(script); },
      [] { return MakeCrashMatrixDb(); }, options, worker);

  EXPECT_FALSE(outcome.stats.degraded_to_simulated);
  EXPECT_EQ(outcome.stats.unexpected_deaths, 2);
  EXPECT_EQ(outcome.stats.real_crashes, static_cast<int>(kAllCrashTypes.size()));
  EXPECT_EQ(outcome.result.unique_bugs.size(), kAllCrashTypes.size());
}

TEST(WorkerSupervision, RepeatedUnannouncedDeathsDegradeToSimulated) {
  const std::vector<std::string> script = CrashMatrixScript();
  CampaignOptions options;
  options.max_statements = 100;
  options.crash_realism = CrashRealism::kReal;
  WorkerOptions worker;
  worker.max_consecutive_deaths = 3;
  worker.backoff_initial_ms = 1;
  worker.backoff_max_ms = 4;
  worker.test_kill9_at_crash = 0;  // every worker SIGKILLs at its first crash

  const WorkerShardOutcome outcome = RunShardInWorkerProcess(
      [&script] { return std::make_unique<ScriptedFuzzer>(script); },
      [] { return MakeCrashMatrixDb(); }, options, worker);

  // The shard degrades but still completes with the full bug set — identical
  // to the simulated reference.
  EXPECT_TRUE(outcome.stats.degraded_to_simulated);
  EXPECT_EQ(outcome.stats.unexpected_deaths, 3);
  ScriptedFuzzer reference_fuzzer(script);
  auto reference_db = MakeCrashMatrixDb();
  CampaignOptions sim;
  sim.max_statements = 100;
  const CampaignResult reference = reference_fuzzer.Run(*reference_db, sim);
  ExpectSameCampaign(reference, outcome.result);
}

TEST(WorkerSupervision, AlarmBackstopKillsHungWorker) {
  const std::vector<std::string> script = CrashMatrixScript();
  CampaignOptions options;
  options.max_statements = 100;
  options.crash_realism = CrashRealism::kReal;
  options.statement_limits.deadline_ms = 50;  // arms the 8x SIGALRM backstop
  WorkerOptions worker;
  worker.max_consecutive_deaths = 2;
  worker.backoff_initial_ms = 1;
  worker.backoff_max_ms = 4;
  worker.test_hang_at_crash = 0;  // hang instead of announcing

  const WorkerShardOutcome outcome = RunShardInWorkerProcess(
      [&script] { return std::make_unique<ScriptedFuzzer>(script); },
      [] { return MakeCrashMatrixDb(); }, options, worker);

  // Every hung worker was reaped by the backstop, never left running; the
  // shard then degraded and completed.
  EXPECT_EQ(outcome.stats.alarm_kills, 2);
  EXPECT_EQ(outcome.stats.unexpected_deaths, 2);
  EXPECT_TRUE(outcome.stats.degraded_to_simulated);
  EXPECT_EQ(outcome.result.unique_bugs.size(), kAllCrashTypes.size());
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

TEST(Checkpoints, RealModeForwardsTheSimulatedCheckpointStream) {
  // Worker restarts re-emit already-streamed checkpoints; the supervisor must
  // forward each logical checkpoint exactly once, in order.
  const std::vector<std::string> script = CrashMatrixScript();

  std::vector<CampaignCheckpoint> sim_checkpoints;
  CampaignOptions sim;
  sim.max_statements = 100;
  sim.checkpoint_every = 2;
  sim.checkpoint_sink = [&sim_checkpoints](const CampaignCheckpoint& cp) {
    sim_checkpoints.push_back(cp);
    return true;
  };
  ScriptedFuzzer sim_fuzzer(script);
  auto sim_db = MakeCrashMatrixDb();
  const CampaignResult sim_result = sim_fuzzer.Run(*sim_db, sim);
  ASSERT_FALSE(sim_checkpoints.empty());

  std::vector<CampaignCheckpoint> real_checkpoints;
  CampaignOptions real = sim;
  real.crash_realism = CrashRealism::kReal;
  real.checkpoint_sink = [&real_checkpoints](const CampaignCheckpoint& cp) {
    real_checkpoints.push_back(cp);
    return true;
  };
  const WorkerShardOutcome outcome = RunShardInWorkerProcess(
      [&script] { return std::make_unique<ScriptedFuzzer>(script); },
      [] { return MakeCrashMatrixDb(); }, real);

  EXPECT_EQ(real_checkpoints, sim_checkpoints);
  ExpectSameCampaign(sim_result, outcome.result);
}

TEST(Checkpoints, SoftCampaignCheckpointsAreDeterministic) {
  CampaignOptions options;
  options.seed = 3;
  options.max_statements = 900;
  options.checkpoint_every = 150;

  std::vector<CampaignCheckpoint> first;
  options.checkpoint_sink = [&first](const CampaignCheckpoint& cp) {
    first.push_back(cp);
    return true;
  };
  RunShardedSoftCampaign("mariadb", options, 1);

  std::vector<CampaignCheckpoint> second;
  options.checkpoint_sink = [&second](const CampaignCheckpoint& cp) {
    second.push_back(cp);
    return true;
  };
  RunShardedSoftCampaign("mariadb", options, 1);

  ASSERT_EQ(first.size(), second.size());
  EXPECT_GE(first.size(), 5u);
  EXPECT_EQ(first, second);
  // Progress is monotone and the cursor fields are populated.
  for (size_t i = 1; i < first.size(); ++i) {
    EXPECT_GT(first[i].cases_completed, first[i - 1].cases_completed);
  }
  EXPECT_NE(first.back().rng_fingerprint, 0u);
}

// ---------------------------------------------------------------------------
// Resume
// ---------------------------------------------------------------------------

TEST(CheckpointResume, Kill9MidCampaignResumesBitIdentical) {
  const std::string journal_path =
      testing::TempDir() + "/soft_kill9_journal.ndjson";
  std::remove(journal_path.c_str());

  CampaignOptions options;
  options.seed = 11;
  options.max_statements = 12000;
  options.checkpoint_every = 150;

  // Uninterrupted reference.
  const CampaignResult reference = RunShardedSoftCampaign("duckdb", options, 1);

  // A real campaign process, streaming its journal, killed with SIGKILL.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::ofstream out(journal_path, std::ios::trunc);
    CampaignOptions child = options;
    telemetry::WriteCampaignStart(out, child, "SOFT", "duckdb", 1);
    out.flush();
    child.checkpoint_sink = [&out](const CampaignCheckpoint& cp) {
      telemetry::WriteCheckpointRecord(out, cp);
      out.flush();
      return out.good();
    };
    RunShardedSoftCampaign("duckdb", child, 1);
    ::_exit(0);
  }
  // Kill once at least two checkpoints hit the disk.
  bool killed = false;
  for (int i = 0; i < 2000; ++i) {
    std::ifstream in(journal_path);
    int checkpoints = 0;
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("\"checkpoint\"") != std::string::npos) {
        ++checkpoints;
      }
    }
    if (checkpoints >= 2) {
      ::kill(pid, SIGKILL);
      killed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(killed) << "campaign finished before it could be killed";
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // Resume from the torn journal: verified replay, bit-identical result.
  const Result<ResumeSpec> spec = LoadResumeSpec(journal_path);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_FALSE(spec->finished);
  ASSERT_TRUE(spec->has_checkpoint);
  EXPECT_GE(spec->last_checkpoint.cases_completed, 300);

  CampaignOptions base;  // knobs the journal does not record
  const Result<CampaignResult> resumed = ResumeSoftCampaign(*spec, base);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameCampaign(reference, *resumed);
  std::remove(journal_path.c_str());
}

TEST(CheckpointResume, VerificationRejectsForeignJournal) {
  // A journal whose checkpoint fingerprint does not belong to its seed: the
  // replay must fail loudly instead of producing a different campaign.
  const std::string journal_path =
      testing::TempDir() + "/soft_foreign_journal.ndjson";
  {
    std::ofstream out(journal_path, std::ios::trunc);
    CampaignOptions options;
    options.seed = 5;
    options.max_statements = 600;
    options.checkpoint_every = 100;
    telemetry::WriteCampaignStart(out, options, "SOFT", "duckdb", 1);
    CampaignCheckpoint cp;
    cp.every = 100;
    cp.cases_completed = 100;
    cp.rng_fingerprint = 0xDEADBEEF;  // not this campaign's cursor
    cp.dedup_digest = 0xDEADBEEF;
    telemetry::WriteCheckpointRecord(out, cp);
  }
  const Result<ResumeSpec> spec = LoadResumeSpec(journal_path);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  CampaignOptions base;
  const Result<CampaignResult> resumed = ResumeSoftCampaign(*spec, base);
  ASSERT_FALSE(resumed.ok());
  EXPECT_NE(resumed.status().message().find("diverged"), std::string::npos)
      << resumed.status().ToString();
  std::remove(journal_path.c_str());
}

TEST(CheckpointResume, DivergenceReportNamesTheDivergedFields) {
  // When the verification checkpoint mismatches, the error must say *which*
  // fields diverged and both values — not just "diverged".
  const std::string journal_path =
      testing::TempDir() + "/soft_divergent_journal.ndjson";
  {
    std::ofstream out(journal_path, std::ios::trunc);
    CampaignOptions options;
    options.seed = 5;
    options.max_statements = 600;
    options.checkpoint_every = 100;
    telemetry::WriteCampaignStart(out, options, "SOFT", "duckdb", 1);
    CampaignCheckpoint cp;
    cp.every = 100;
    cp.cases_completed = 100;
    cp.rng_fingerprint = 0xDEADBEEF;  // not this campaign's cursor
    cp.dedup_digest = 0xDEADBEEF;
    telemetry::WriteCheckpointRecord(out, cp);
  }
  const Result<ResumeSpec> spec = LoadResumeSpec(journal_path);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  CampaignOptions base;
  const Result<CampaignResult> resumed = ResumeSoftCampaign(*spec, base);
  ASSERT_FALSE(resumed.ok());
  const std::string message = resumed.status().message();
  EXPECT_NE(message.find("rng_fingerprint"), std::string::npos) << message;
  EXPECT_NE(message.find("dedup_digest"), std::string::npos) << message;
  EXPECT_NE(message.find("journal=" + std::to_string(0xDEADBEEFull)),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("replay="), std::string::npos) << message;
  std::remove(journal_path.c_str());
}

TEST(CheckpointResume, MultiShardJournalsAreRejected) {
  const std::string journal_path =
      testing::TempDir() + "/soft_sharded_journal.ndjson";
  {
    std::ofstream out(journal_path, std::ios::trunc);
    CampaignOptions options;
    options.seed = 5;
    options.max_statements = 600;
    telemetry::WriteCampaignStart(out, options, "SOFT", "duckdb", 4);
  }
  // The journal parses (a fleet resume reads the same spec); the checkpoint
  // replay is what refuses it.
  const Result<ResumeSpec> spec = LoadResumeSpec(journal_path);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const Result<CampaignResult> resumed = ResumeSoftCampaign(*spec, CampaignOptions());
  EXPECT_FALSE(resumed.ok());
  EXPECT_NE(resumed.status().message().find("single-shard"), std::string::npos)
      << resumed.status().ToString();
  std::remove(journal_path.c_str());
}

// ---------------------------------------------------------------------------
// Vanilla twin under real-crash mode
// ---------------------------------------------------------------------------

TEST(WorkerHarness, VanillaTwinSurvivesRealCrashModeWithZeroSignals) {
  // A database with no fault corpus cannot raise: one fork, no crashes, and
  // the real-mode result equals the simulated one trivially.
  CampaignOptions options;
  options.seed = 17;
  options.max_statements = 400;

  auto make_db = [] {
    EngineConfig config;
    config.name = "duckdb";  // duckdb's seed suite against a vanilla engine
    return std::make_unique<Database>(config);
  };
  auto make_fuzzer = [] { return std::make_unique<SoftFuzzer>(); };

  CampaignOptions real = options;
  real.crash_realism = CrashRealism::kReal;
  const WorkerShardOutcome outcome =
      RunShardInWorkerProcess(make_fuzzer, make_db, real);

  EXPECT_EQ(outcome.stats.forks, 1);
  EXPECT_EQ(outcome.stats.real_crashes, 0);
  EXPECT_EQ(outcome.stats.unexpected_deaths, 0);
  EXPECT_FALSE(outcome.stats.degraded_to_simulated);
  EXPECT_EQ(outcome.result.crashes_observed, 0);
  EXPECT_TRUE(outcome.result.unique_bugs.empty());

  auto db = make_db();
  SoftFuzzer fuzzer;
  const CampaignResult reference = fuzzer.Run(*db, options);
  ExpectSameCampaign(reference, outcome.result);
}

}  // namespace
}  // namespace soft
