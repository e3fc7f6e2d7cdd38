#include "src/soft/soft_fuzzer.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/dialects/dialects.h"
#include "src/soft/expr_collection.h"
#include "src/soft/logic_oracle.h"
#include "src/soft/parallel_runner.h"
#include "src/soft/seeds.h"
#include "src/sqlparser/parser.h"
#include "src/telemetry/telemetry.h"
#include "src/util/rng.h"

namespace soft {
namespace {

bool StatementIsSelect(const std::string& sql) {
  const Result<Statement> parsed = ParseStatement(sql);
  return parsed.ok() && parsed->is_select();
}

// Logic-bug oracle mode (CampaignOptions::logic_oracles); a forked kReal
// worker cannot host the differential siblings.
bool LogicMode(const CampaignOptions& options) {
  return !options.logic_oracles.empty() &&
         options.crash_realism == CrashRealism::kSimulated;
}

}  // namespace

bool SoftCasePool::BuiltFor(const std::string& for_dialect,
                            const CampaignOptions& options,
                            const SoftOptions& for_soft_options) const {
  return dialect == for_dialect && seed == options.seed &&
         logic_mode == LogicMode(options) && soft_options == for_soft_options;
}

std::shared_ptr<const SoftCasePool> BuildSoftCasePool(const Database& db,
                                                      const CampaignOptions& options,
                                                      const SoftOptions& soft_options) {
  auto pool = std::make_shared<SoftCasePool>();
  pool->dialect = db.config().name;
  pool->seed = options.seed;
  pool->logic_mode = LogicMode(options);
  pool->soft_options = soft_options;

  // Step 1: function-expression collection (documentation + suite).
  const std::vector<std::string> suite = SeedSuiteFor(db.config().name);
  FunctionCorpus corpus = CollectCorpus(db, suite);
  pool->prerequisites = std::move(corpus.prerequisites);

  // Step 2: pattern-based generation.
  PatternEngine engine(db, options.seed, soft_options.patterns);
  if (soft_options.extremes_only_pool) {
    engine.set_pool(GenerateExtremesOnlyPool());
  }
  std::vector<GeneratedCase> cases;
  // In logic mode the seeded wrong-result corpus's PoCs lead the case list,
  // so even small budgets exercise every LogicBugSpec (the injectable
  // ground-truth analogue of the crash corpus-replay prefix below).
  if (pool->logic_mode) {
    for (const LogicBugSpec& spec : db.faults().AllLogicBugs()) {
      Result<std::string> poc = BuildLogicPocSql(db, spec);
      if (poc.ok()) {
        cases.push_back(GeneratedCase{std::move(poc).value(), "logic-seed"});
      }
    }
  }
  // The suite's own queries and every collected expression run first (the
  // corpus replay: SOFT validates each harvested function expression before
  // mutating it), warming function-trigger coverage across the catalog.
  for (const std::string& seed : suite) {
    cases.push_back(GeneratedCase{seed, "seed"});
  }
  for (const std::string& expr : corpus.expressions) {
    cases.push_back(GeneratedCase{"SELECT " + expr, "seed"});
  }
  for (const std::string& expr : corpus.expressions) {
    if (soft_options.only_patterns.empty()) {
      engine.GenerateAll(expr, corpus.expressions, cases);
    } else {
      for (const std::string& pattern : soft_options.only_patterns) {
        engine.GenerateOne(pattern, expr, corpus.expressions, cases);
      }
    }
  }
  // Deduplicate by statement text (the patterns overlap on simple seeds).
  std::vector<GeneratedCase>& unique_cases = pool->cases;
  std::set<std::string> seen;
  unique_cases.reserve(cases.size());
  for (GeneratedCase& test_case : cases) {
    if (seen.insert(test_case.sql).second) {
      unique_cases.push_back(std::move(test_case));
    }
  }
  seen.clear();
  // Keep the corpus-replay prefix in place; shuffle only the generated tail
  // so the budget samples patterns and seeds uniformly (Fisher-Yates with
  // the campaign RNG).
  size_t first_generated = 0;
  while (first_generated < unique_cases.size() &&
         (unique_cases[first_generated].pattern == "seed" ||
          unique_cases[first_generated].pattern == "logic-seed")) {
    ++first_generated;
  }
  Rng rng(options.seed);
  for (size_t i = unique_cases.size(); i > first_generated + 1; --i) {
    const size_t j = first_generated + rng.NextBelow(i - first_generated);
    std::swap(unique_cases[i - 1], unique_cases[j]);
  }
  pool->rng_fingerprint = rng.StateFingerprint();
  return pool;
}

std::shared_ptr<const SoftCasePool> BuildSoftCasePool(const std::string& dialect,
                                                      const CampaignOptions& options,
                                                      const SoftOptions& soft_options) {
  const std::unique_ptr<Database> db = MakeDialect(dialect);
  return db != nullptr ? BuildSoftCasePool(*db, options, soft_options) : nullptr;
}

SoftFuzzer::SoftFuzzer(SoftOptions options, std::shared_ptr<const SoftCasePool> pool)
    : soft_options_(std::move(options)), pool_(std::move(pool)) {}

CampaignResult SoftFuzzer::Run(Database& db, const CampaignOptions& options) {
  CampaignResult result;
  CampaignRecorder recorder(result, name(), db, options);
  const std::shared_ptr<const SoftCasePool> pool =
      pool_ != nullptr && pool_->BuiltFor(result.dialect, options, soft_options_)
          ? pool_
          : BuildSoftCasePool(db, options, soft_options_);
  const std::vector<GeneratedCase>& cases = pool->cases;

  // Oracles exist before the prerequisites run so the differential siblings
  // replay them and start in lockstep with the campaign database.
  std::vector<std::unique_ptr<LogicOracle>> oracles;
  if (pool->logic_mode) {
    oracles = MakeLogicOracles(options.logic_oracles, result.dialect);
  }
  const auto observe_side_effect = [&](const std::string& sql) {
    for (const std::unique_ptr<LogicOracle>& oracle : oracles) {
      oracle->ObserveSideEffect(sql);
    }
  };

  // Prerequisites: tables the suite queries depend on (Finding 4).
  for (const std::string& prereq : pool->prerequisites) {
    db.Execute(prereq);
    observe_side_effect(prereq);
  }
  if (pool->logic_mode) {
    for (const std::string& prereq : LogicOraclePrerequisites()) {
      db.Execute(prereq);
      observe_side_effect(prereq);
    }
    // Arm the seeded wrong-result corpus only now: every DDL/INSERT above ran
    // clean, so stored rows are identical across the campaign database and
    // the sibling engines.
    db.set_logic_faults_enabled(true);
  }

  // Per-pattern pool census, one hook call per pattern. Every partition
  // shard counts the full pool, so merged `generated` counts are K× serial.
  if (telemetry::CollectorInstalled()) {
    std::map<std::string, uint64_t> pool_census;
    for (const GeneratedCase& test_case : cases) {
      ++pool_census[test_case.pattern];
    }
    for (const auto& [pattern, count] : pool_census) {
      telemetry::CountGenerated(pattern, count);
    }
  }

  // Step 3: execution and crash detection. A case-partitioned shard (see
  // campaign.h) executes the global case indices below the budget with
  // index % shard_count == shard_index; serial is shard_count == 1, so the
  // union over K shards is exactly the serial campaign's executed prefix.
  const size_t shard_count = static_cast<size_t>(std::max(options.shard_count, 1));
  const size_t shard_index = static_cast<size_t>(std::max(options.shard_index, 0));
  const size_t budget = static_cast<size_t>(std::max(options.max_statements, 0));
  std::set<int> logic_found_ids;
  for (size_t case_index = shard_index;
       case_index < cases.size() && case_index < budget; case_index += shard_count) {
    const GeneratedCase& test_case = cases[case_index];
    const StatementResult r = recorder.Execute(test_case.sql, test_case.pattern);
    const bool stop = options.stop_when_all_bugs_found && r.crashed() &&
                      recorder.all_bugs_found();
    // Logic oracles compare successful SELECTs for wrong-result divergence
    // and mirror successful writes into the differential siblings. Verdicts
    // come from result comparison alone; r.logic_hits (ground truth) is read
    // only after an oracle flags, to tell attributed bugs from false
    // positives.
    if (!oracles.empty() && recorder.outcome() == "ok") {
      // Oracle re-executions happen while this statement's trace span is
      // open; the scoped guard suppresses their stage spans so the traced
      // pipeline stays the statement's own (and span IDs stay unique per
      // ordinal). The guard is released before the verdict annotation,
      // which needs the span open again.
      const std::string verdict = [&]() -> std::string {
        const trace::ScopedOracleExecution suppress_oracle_stage_spans;
        if (!StatementIsSelect(test_case.sql)) {
          observe_side_effect(test_case.sql);
          return "skipped";
        }
        bool any_in_scope = false;
        for (const std::unique_ptr<LogicOracle>& oracle : oracles) {
          const LogicOracle::Verdict v = oracle->Check(db, test_case.sql, r);
          if (!v.checked) {
            continue;
          }
          any_in_scope = true;
          ++result.logic_checks;
          telemetry::CountLogicCheck(test_case.pattern);
          if (!v.divergence) {
            continue;
          }
          ++result.logic_divergences;
          const std::string oracle_name(oracle->name());
          if (r.logic_hits.empty()) {
            ++result.logic_false_positives;
            return "false_positive:" + oracle_name;
          }
          // First flagging oracle wins — deterministic attribution.
          telemetry::CountLogicBug(test_case.pattern);
          for (const LogicBugInfo& hit : r.logic_hits) {
            if (!logic_found_ids.insert(hit.bug_id).second) {
              continue;
            }
            FoundLogicBug logic_bug;
            logic_bug.info = hit;
            logic_bug.oracle = oracle_name;
            logic_bug.poc_sql = test_case.sql;
            logic_bug.witness = v.witness;
            logic_bug.detail = v.detail;
            logic_bug.case_index = static_cast<int>(case_index);
            logic_bug.statements_until_found = result.statements_executed;
            result.logic_bugs.push_back(std::move(logic_bug));
          }
          return "logic_bug:" + oracle_name;
        }
        return any_in_scope ? "consistent" : "skipped";
      }();
      trace::AnnotateStatement("oracle_verdict", verdict);
    }
    recorder.Close(pool->rng_fingerprint);
    if (stop) {
      break;
    }
  }

  // Canonical logic-bug order: the global case index is shard-invariant, so
  // serial and merged sharded campaigns agree on it (statements_until_found
  // and shard are shard-local attribution detail, excluded from digests).
  std::sort(result.logic_bugs.begin(), result.logic_bugs.end(),
            [](const FoundLogicBug& a, const FoundLogicBug& b) {
              return a.case_index != b.case_index ? a.case_index < b.case_index
                                                  : a.info.bug_id < b.info.bug_id;
            });

  recorder.Finish();
  return result;
}

CampaignResult RunShardedSoftCampaign(const std::string& dialect,
                                      const CampaignOptions& options, int shards,
                                      SoftOptions soft_options, ShardMode mode) {
  std::shared_ptr<const SoftCasePool> pool;
  if (mode == ShardMode::kPartitionCases) {
    pool = BuildSoftCasePool(dialect, options, soft_options);
  }
  return RunShardedCampaign(
      [soft_options, pool] { return std::make_unique<SoftFuzzer>(soft_options, pool); },
      dialect, options, shards, mode);
}

}  // namespace soft
