// Chaos campaign oracles (src/soft/chaos.h): every registered failpoint,
// when armed, degrades the harness exactly the way its SiteClass promises —
// clean Status, no crash, campaign outcomes bit-identical wherever the fault
// is retried or absorbed.
//
// These tests fork (worker sites, kReal campaigns, fleet workers) and bind
// sockets: keep them out of the TSan lane like the worker harness tests
// (tests/CMakeLists.txt). The asan CI job runs them plus
// `find_bugs --chaos=enumerate`.
#include <gtest/gtest.h>

#include <string>

#include "src/failpoint/failpoint.h"
#include "src/soft/chaos.h"
#include "src/soft/soft_fuzzer.h"
#include "src/telemetry/telemetry.h"

namespace soft {
namespace {

constexpr char kDialect[] = "mariadb";
constexpr int kBudget = 300;

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }
};

CampaignOptions ChaosOptions(int budget) {
  CampaignOptions options;
  options.seed = 42;
  options.max_statements = budget;
  return options;
}

TEST_F(ChaosTest, DigestIsStableAndSensitive) {
  const CampaignResult a = RunShardedSoftCampaign(kDialect, ChaosOptions(kBudget), 1);
  const CampaignResult b = RunShardedSoftCampaign(kDialect, ChaosOptions(kBudget), 1);
  EXPECT_EQ(DigestCampaignResult(a), DigestCampaignResult(b));

  CampaignOptions other = ChaosOptions(kBudget);
  other.seed = 43;
  const CampaignResult c = RunShardedSoftCampaign(kDialect, other, 1);
  EXPECT_NE(DigestCampaignResult(a), DigestCampaignResult(c));

  // journal_degraded is deliberately outside the digest: it is the one field
  // degrade-class injections are allowed to change.
  CampaignResult degraded = a;
  degraded.journal_degraded = true;
  EXPECT_EQ(DigestCampaignResult(a), DigestCampaignResult(degraded));
}

TEST_F(ChaosTest, EnumerationOracleHoldsForEverySite) {
  // find_bugs --chaos=enumerate's defaults. At this budget an engine site
  // armed before the corpus collection shrinks the pool below the budget,
  // so the statement-loop assertion only holds for a pool built unarmed.
  const ChaosReport report = RunChaosEnumeration("virtuoso", 600);
  if (!report.compiled_in) {
    EXPECT_TRUE(report.outcomes.empty());
    EXPECT_TRUE(report.ok());
    GTEST_SKIP() << "failpoints compiled out";
  }
  ASSERT_EQ(report.outcomes.size(), failpoint::kInventory.size());
  int worker_sites = 0;
  int fleet_sites = 0;
  int net_sites = 0;
  for (size_t i = 0; i < report.outcomes.size(); ++i) {
    const ChaosSiteOutcome& outcome = report.outcomes[i];
    EXPECT_EQ(outcome.failpoint, failpoint::kInventory[i].name);
    EXPECT_TRUE(outcome.ok) << outcome.failpoint << " [" << outcome.site_class
                            << "]: " << outcome.detail;
    // Every site ran its own oracle under a real arming spec.
    EXPECT_EQ(outcome.spec.rfind(outcome.failpoint + "=", 0), 0u) << outcome.spec;
    if (outcome.failpoint.rfind("worker.", 0) == 0) {
      ++worker_sites;
    } else if (outcome.failpoint.rfind("fleet.", 0) == 0) {
      ++fleet_sites;
    } else if (outcome.failpoint.rfind("net.", 0) == 0) {
      ++net_sites;
      EXPECT_EQ(outcome.site_class, "net") << outcome.failpoint;
    }
  }
  EXPECT_EQ(worker_sites, 3);
  EXPECT_EQ(fleet_sites, 5);
  EXPECT_EQ(net_sites, 6);
}

TEST_F(ChaosTest, ShardedCampaignBitIdenticalUnderInjectedWorkerFaults) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  // K=2 real-crash campaign with transient worker faults armed vs the K=2
  // uninjected simulated reference: retried/absorbed faults must leave the
  // merged result bit-identical — regardless of which shard drew the fault.
  telemetry::SetRuntimeEnabled(false);
  const CampaignResult reference =
      RunShardedSoftCampaign(kDialect, ChaosOptions(600), /*shards=*/2);

  ASSERT_TRUE(failpoint::ArmFromSpec(
                  "worker.fork=after:0:2,worker.pipe_write=after:0:3,"
                  "worker.pipe_read=after:0:3")
                  .ok());
  CampaignOptions real = ChaosOptions(600);
  real.crash_realism = CrashRealism::kReal;
  const CampaignResult injected =
      RunShardedSoftCampaign(kDialect, real, /*shards=*/2);
  failpoint::DisarmAll();
  telemetry::SetRuntimeEnabled(true);

  EXPECT_EQ(DigestCampaignResult(injected), DigestCampaignResult(reference));
  EXPECT_FALSE(injected.journal_degraded);
}

TEST_F(ChaosTest, SinkLossLatchesDegradedWithoutChangingTheOutcome) {
  // No failpoint involved: the bool-returning sink contract alone must
  // degrade gracefully, so this holds in -DSOFT_FAILPOINTS=OFF builds too.
  CampaignOptions baseline_options = ChaosOptions(kBudget);
  baseline_options.checkpoint_every = 25;
  int baseline_calls = 0;
  baseline_options.checkpoint_sink = [&baseline_calls](const CampaignCheckpoint&) {
    ++baseline_calls;
    return true;
  };
  const CampaignResult baseline =
      RunShardedSoftCampaign(kDialect, baseline_options, 1);
  ASSERT_GT(baseline_calls, 3);
  EXPECT_FALSE(baseline.journal_degraded);

  // The sink dies on its third call: the campaign must stop calling it,
  // latch journal_degraded, and finish with the identical outcome.
  CampaignOptions lossy_options = ChaosOptions(kBudget);
  lossy_options.checkpoint_every = 25;
  int lossy_calls = 0;
  lossy_options.checkpoint_sink = [&lossy_calls](const CampaignCheckpoint&) {
    ++lossy_calls;
    return lossy_calls < 3;
  };
  const CampaignResult lossy = RunShardedSoftCampaign(kDialect, lossy_options, 1);
  EXPECT_EQ(lossy_calls, 3);
  EXPECT_TRUE(lossy.journal_degraded);
  EXPECT_EQ(DigestCampaignResult(lossy), DigestCampaignResult(baseline));
}

}  // namespace
}  // namespace soft
