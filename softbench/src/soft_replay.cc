#include "soft_replay.h"

#include <algorithm>
#include <set>

#include "src/dialects/dialects.h"
#include "src/soft/expr_collection.h"
#include "src/soft/parallel_runner.h"
#include "src/soft/seeds.h"
#include "src/sqlparser/parser.h"
#include "src/util/rng.h"

namespace softbench {

using soft::CampaignOptions;
using soft::CampaignResult;
using soft::GeneratedCase;

CasePool BuildCasePool(const std::string& dialect, const CampaignOptions& options,
                       SpanRecorder* recorder,
                       soft::telemetry::CampaignTelemetry* telemetry) {
  CasePool pool;
  {
    const ScopedSpan span(recorder, "MakeDialect", dialect);
    pool.db = soft::MakeDialect(dialect);
  }
  soft::Database& db = *pool.db;
  const soft::telemetry::ScopedCollector collect(telemetry);
  pool.expected_bugs = db.faults().bug_count();
  db.set_statement_limits(options.statement_limits);

  std::vector<std::string> suite;
  {
    const ScopedSpan span(recorder, "SeedSuiteFor");
    suite = soft::SeedSuiteFor(db.config().name);
  }
  soft::FunctionCorpus corpus;
  {
    const ScopedSpan span(recorder, "CollectCorpus");
    corpus = soft::CollectCorpus(db, suite);
  }

  const bool logic_mode = !options.logic_oracles.empty() &&
                          options.crash_realism == soft::CrashRealism::kSimulated;
  if (logic_mode) {
    const ScopedSpan span(recorder, "MakeLogicOracles");
    pool.oracles = soft::MakeLogicOracles(options.logic_oracles, db.config().name);
  }
  const auto execute_prerequisite = [&](const std::string& sql) {
    {
      const ScopedSpan span(recorder, "Database::Execute", "prerequisite");
      db.Execute(sql);
    }
    for (const std::unique_ptr<soft::LogicOracle>& oracle : pool.oracles) {
      const ScopedSpan span(recorder, "LogicOracle::ObserveSideEffect",
                            std::string(oracle->name()));
      oracle->ObserveSideEffect(sql);
    }
  };
  for (const std::string& prereq : corpus.prerequisites) {
    execute_prerequisite(prereq);
  }
  if (logic_mode) {
    for (const std::string& prereq : soft::LogicOraclePrerequisites()) {
      execute_prerequisite(prereq);
    }
    db.set_logic_faults_enabled(true);
  }

  std::vector<GeneratedCase>& cases = pool.cases;
  if (logic_mode) {
    for (const soft::LogicBugSpec& spec : db.faults().AllLogicBugs()) {
      soft::Result<std::string> poc = soft::BuildLogicPocSql(db, spec);
      if (poc.ok()) {
        cases.push_back(GeneratedCase{std::move(poc).value(), "logic-seed"});
      }
    }
  }
  for (const std::string& seed : suite) {
    cases.push_back(GeneratedCase{seed, "seed"});
  }
  for (const std::string& expr : corpus.expressions) {
    cases.push_back(GeneratedCase{"SELECT " + expr, "seed"});
  }
  {
    soft::PatternEngine engine(db, options.seed);
    for (const std::string& expr : corpus.expressions) {
      const ScopedSpan span(recorder, "PatternEngine::GenerateAll");
      engine.GenerateAll(expr, corpus.expressions, cases);
    }
  }
  pool.generated = cases.size();

  // SoftFuzzer::Run's own pool order: dedup by statement text, keep the
  // corpus-replay prefix, Fisher-Yates the generated tail with the campaign
  // seed.
  const ScopedSpan span(recorder, "DedupShuffle");
  {
    std::set<std::string> seen;
    std::vector<GeneratedCase> unique_cases;
    unique_cases.reserve(cases.size());
    for (GeneratedCase& test_case : cases) {
      if (seen.insert(test_case.sql).second) {
        unique_cases.push_back(std::move(test_case));
      }
    }
    cases = std::move(unique_cases);
  }
  size_t first_generated = 0;
  while (first_generated < cases.size() && (cases[first_generated].pattern == "seed" ||
                                            cases[first_generated].pattern == "logic-seed")) {
    ++first_generated;
  }
  soft::Rng rng(options.seed);
  for (size_t i = cases.size(); i > first_generated + 1; --i) {
    const size_t j = first_generated + rng.NextBelow(i - first_generated);
    std::swap(cases[i - 1], cases[j]);
  }
  return pool;
}

CampaignResult ReplaySoftCampaign(const std::string& dialect, const CampaignOptions& options,
                                  SpanRecorder* recorder, ReplayInfo* info) {
  const ScopedSpan campaign_span(recorder, "campaign", dialect);
  CampaignResult result;
  result.tool = "SOFT";
  CasePool pool;
  {
    const ScopedSpan span(recorder, "setup");
    pool = BuildCasePool(dialect, options, recorder, &result.telemetry);
  }
  soft::Database& db = *pool.db;
  result.dialect = db.config().name;
  info->generated = pool.generated;
  info->pool_cases = pool.cases.size();
  const soft::telemetry::ScopedCollector collect(&result.telemetry);

  const size_t shard_count = options.shard_count > 1 ? static_cast<size_t>(options.shard_count) : 1;
  const size_t shard_index = options.shard_index > 0 ? static_cast<size_t>(options.shard_index) : 0;
  const size_t budget = options.max_statements > 0 ? static_cast<size_t>(options.max_statements) : 0;
  std::set<int> found_ids;
  std::set<int> logic_found_ids;
  {
    const ScopedSpan loop_span(recorder, "statements");
    for (size_t case_index = shard_index;
         case_index < pool.cases.size() && case_index < budget; case_index += shard_count) {
      const GeneratedCase& test_case = pool.cases[case_index];
      ++result.statements_executed;
      soft::telemetry::CountExecuted(test_case.pattern);
      bool is_select = false;
      {
        const ScopedSpan span(recorder, "ParseStatement", test_case.pattern);
        const soft::Result<soft::Statement> parsed = soft::ParseStatement(test_case.sql);
        is_select = parsed.ok() && parsed->is_select();
      }
      soft::StatementResult r;
      {
        const ScopedSpan span(recorder, "Database::Execute", test_case.pattern);
        r = db.Execute(test_case.sql);
      }
      bool stop = false;
      bool ok = false;
      if (r.crashed()) {
        ++result.crashes_observed;
        soft::telemetry::CountCrash(test_case.pattern);
        if (found_ids.insert(r.crash->bug_id).second) {
          soft::telemetry::CountBugDeduped(test_case.pattern);
          soft::FoundBug bug;
          bug.crash = *r.crash;
          bug.poc_sql = test_case.sql;
          bug.found_by = test_case.pattern;
          bug.statements_until_found = result.statements_executed;
          result.unique_bugs.push_back(std::move(bug));
        }
        stop = options.stop_when_all_bugs_found && found_ids.size() >= pool.expected_bugs;
      } else if (r.status.code() == soft::StatusCode::kTimeout) {
        ++result.watchdog_timeouts;
        soft::telemetry::CountTimeout(test_case.pattern);
      } else if (r.status.code() == soft::StatusCode::kResourceExhausted) {
        ++result.false_positives;
        soft::telemetry::CountFalsePositive(test_case.pattern);
      } else if (!r.ok()) {
        ++result.sql_errors;
        soft::telemetry::CountSqlError(test_case.pattern);
      } else {
        ok = true;
      }
      if (ok && !pool.oracles.empty()) {
        if (!is_select) {
          for (const std::unique_ptr<soft::LogicOracle>& oracle : pool.oracles) {
            const ScopedSpan span(recorder, "LogicOracle::ObserveSideEffect",
                                  std::string(oracle->name()));
            oracle->ObserveSideEffect(test_case.sql);
          }
        } else {
          // First flagging oracle wins; the later ones are not consulted.
          for (const std::unique_ptr<soft::LogicOracle>& oracle : pool.oracles) {
            soft::LogicOracle::Verdict v;
            {
              const ScopedSpan span(recorder, "LogicOracle::Check",
                                    std::string(oracle->name()));
              v = oracle->Check(db, test_case.sql, r);
            }
            std::pair<uint64_t, uint64_t>& checks =
                info->oracle_checks[std::string(oracle->name())];
            ++checks.first;
            if (!v.checked) {
              continue;
            }
            ++checks.second;
            ++result.logic_checks;
            soft::telemetry::CountLogicCheck(test_case.pattern);
            if (!v.divergence) {
              continue;
            }
            ++result.logic_divergences;
            if (r.logic_hits.empty()) {
              ++result.logic_false_positives;
              break;
            }
            soft::telemetry::CountLogicBug(test_case.pattern);
            for (const soft::LogicBugInfo& hit : r.logic_hits) {
              if (!logic_found_ids.insert(hit.bug_id).second) {
                continue;
              }
              soft::FoundLogicBug logic_bug;
              logic_bug.info = hit;
              logic_bug.oracle = std::string(oracle->name());
              logic_bug.poc_sql = test_case.sql;
              logic_bug.witness = v.witness;
              logic_bug.detail = v.detail;
              logic_bug.case_index = static_cast<int>(case_index);
              logic_bug.statements_until_found = result.statements_executed;
              result.logic_bugs.push_back(std::move(logic_bug));
            }
            break;
          }
        }
      }
      if (stop) {
        break;
      }
    }
  }
  std::sort(result.logic_bugs.begin(), result.logic_bugs.end(),
            [](const soft::FoundLogicBug& a, const soft::FoundLogicBug& b) {
              return a.case_index != b.case_index ? a.case_index < b.case_index
                                                  : a.info.bug_id < b.info.bug_id;
            });
  result.functions_triggered = db.coverage().TriggeredFunctionCount();
  result.branches_covered = db.coverage().CoveredBranchCount();

  const ScopedSpan merge_span(recorder, "MergeShardResults");
  std::vector<soft::ShardResult> outcomes(1);
  outcomes[0].result = std::move(result);
  outcomes[0].coverage = db.coverage();
  return soft::MergeShardResults(std::move(outcomes));
}

}  // namespace softbench
