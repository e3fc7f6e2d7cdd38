#include "src/soft/chaos.h"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/failpoint/failpoint.h"
#include "src/fleet/coordinator.h"
#include "src/soft/parallel_runner.h"
#include "src/soft/soft_fuzzer.h"
#include "src/telemetry/journal.h"
#include "src/util/io.h"

namespace soft {
namespace {

constexpr int kDefaultBudget = 600;
constexpr int kSocketUnits = 4;

// The last statement of a site's driver script is the one expected to take
// the injected fault; everything before it is setup that must succeed.
std::vector<std::string> EngineDriverScript(const std::string& site) {
  if (site == "parse.enter" || site == "optimize.enter" || site == "exec.select") {
    return {"SELECT 1"};
  }
  if (site == "parse.expr" || site == "optimize.expr" || site == "eval.enter") {
    return {"SELECT 1 + 1"};
  }
  if (site == "eval.function") {
    return {"SELECT ABS(-1)"};
  }
  if (site == "eval.subquery") {
    return {"SELECT (SELECT 1)"};
  }
  if (site == "catalog.create") {
    return {"CREATE TABLE chaos_t (a INT)"};
  }
  if (site == "catalog.drop") {
    return {"CREATE TABLE chaos_t (a INT)", "DROP TABLE chaos_t"};
  }
  if (site == "catalog.insert") {
    return {"CREATE TABLE chaos_t (a INT)", "INSERT INTO chaos_t VALUES (1)"};
  }
  return {};
}

// Runs `script` against a fresh builtin-catalog database; the final
// statement's result lands in `last`. Setup statements must succeed.
bool RunDriverScript(const std::vector<std::string>& script, StatementResult& last,
                     std::string& error) {
  Database db;
  for (size_t i = 0; i < script.size(); ++i) {
    last = db.Execute(script[i]);
    if (i + 1 < script.size() && !last.ok()) {
      error = "setup statement '" + script[i] + "' failed: " + last.status.ToString();
      return false;
    }
  }
  return true;
}

CampaignOptions SmokeOptions(int budget) {
  CampaignOptions options;
  options.seed = 20260807;
  options.max_statements = budget;
  return options;
}

// A serial campaign that executes `pool` instead of building its own.
CampaignResult RunPoolCampaign(const std::shared_ptr<const SoftCasePool>& pool,
                               const std::string& dialect,
                               const CampaignOptions& options) {
  return RunShardedCampaign(
      [pool] { return std::make_unique<SoftFuzzer>(SoftOptions(), pool); }, dialect,
      options, /*shards=*/1, ShardMode::kPartitionCases);
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// What every site's oracle compares against: the uninjected runs of one
// enumeration, built once before any site is armed.
struct References {
  std::string dialect;
  int budget = 0;
  std::shared_ptr<const SoftCasePool> pool;  // the smoke campaign's cases
  CampaignResult serial;                     // one shard over `pool`
  uint64_t sharded_digest = 0;               // kSocketUnits partition shards
};

ChaosSiteOutcome NewOutcome(const failpoint::SiteInfo& site, const std::string& spec) {
  ChaosSiteOutcome outcome;
  outcome.failpoint = std::string(site.name);
  outcome.site_class = std::string(failpoint::SiteClassName(site.site_class));
  outcome.spec = spec;
  return outcome;
}

// Arms `spec` on a freshly reset registry (counters at zero, so repeated
// runs fire identically), runs `body`, and disarms every site again, so no
// injection outlives its oracle step. False, with the reason in
// `outcome.detail`, when the spec does not arm.
bool RunArmed(const std::string& spec, ChaosSiteOutcome& outcome,
              const std::function<void()>& body) {
  failpoint::DisarmAll();
  const Status armed = failpoint::ArmFromSpec(spec);
  if (armed.ok()) {
    body();
  } else {
    outcome.detail = "arm '" + spec + "' failed: " + armed.ToString();
  }
  failpoint::DisarmAll();
  return armed.ok();
}

// --- per-class oracles ------------------------------------------------------

ChaosSiteOutcome CheckEngineSite(const failpoint::SiteInfo& site,
                                 const References& ref) {
  ChaosSiteOutcome outcome = NewOutcome(site, std::string(site.name) + "=error");
  const std::vector<std::string> script = EngineDriverScript(outcome.failpoint);
  if (script.empty()) {
    outcome.detail = "no driver script registered for this engine site";
    return outcome;
  }

  // (1) error mode: the driver statement surfaces a clean kResourceExhausted.
  StatementResult last;
  std::string setup_error;
  bool setup_ok = false;
  failpoint::SiteStats stats;
  if (!RunArmed(outcome.spec, outcome, [&] {
        setup_ok = RunDriverScript(script, last, setup_error);
        stats = failpoint::Stats(site.name);
      })) {
    return outcome;
  }
  if (!setup_ok) {
    outcome.detail = setup_error;
    return outcome;
  }
  if (stats.fires == 0) {
    outcome.detail = "driver statement never evaluated the site (inventory drift?)";
    return outcome;
  }
  if (last.ok() || last.status.code() != StatusCode::kResourceExhausted ||
      last.crashed()) {
    outcome.detail = "expected clean kResourceExhausted, got " + last.status.ToString();
    return outcome;
  }

  // (2) oom mode: the thrown bad_alloc is caught at the Execute boundary.
  if (!RunArmed(outcome.failpoint + "=oom", outcome,
                [&] { setup_ok = RunDriverScript(script, last, setup_error); })) {
    return outcome;
  }
  if (!setup_ok) {
    outcome.detail = "oom: " + setup_error;
    return outcome;
  }
  if (last.status.code() != StatusCode::kResourceExhausted ||
      last.status.message().find("allocation failure") == std::string::npos) {
    outcome.detail = "oom: expected caught bad_alloc → kResourceExhausted, got " +
                     last.status.ToString();
    return outcome;
  }

  // (3) Statement-loop injection: over the unarmed pool, the armed campaign
  // runs the baseline's full statement count and is run-to-run deterministic.
  const std::string campaign_spec = outcome.failpoint + "=after:50";
  const CampaignOptions options = SmokeOptions(ref.budget);
  CampaignResult injected[2];
  for (CampaignResult& run : injected) {
    if (!RunArmed(campaign_spec, outcome,
                  [&] { run = RunPoolCampaign(ref.pool, ref.dialect, options); })) {
      return outcome;
    }
  }
  if (injected[0].statements_executed != ref.serial.statements_executed) {
    outcome.detail = "injected campaign stopped early: " +
                     std::to_string(injected[0].statements_executed) + " vs baseline " +
                     std::to_string(ref.serial.statements_executed) + " statements";
    return outcome;
  }
  if (DigestCampaignResult(injected[0]) != DigestCampaignResult(injected[1])) {
    outcome.detail = "injected campaign not run-to-run deterministic";
    return outcome;
  }

  // (4) Setup-time injection: the site may fire while the corpus is
  // collected, which changes the pool — identically on every build — and a
  // campaign over that pool runs every case up to the budget.
  std::shared_ptr<const SoftCasePool> armed_pools[2];
  for (std::shared_ptr<const SoftCasePool>& pool : armed_pools) {
    if (!RunArmed(campaign_spec, outcome, [&] {
          pool = BuildSoftCasePool(ref.dialect, options, SoftOptions());
        })) {
      return outcome;
    }
  }
  if (armed_pools[0]->cases != armed_pools[1]->cases ||
      armed_pools[0]->prerequisites != armed_pools[1]->prerequisites ||
      armed_pools[0]->rng_fingerprint != armed_pools[1]->rng_fingerprint) {
    outcome.detail = "pool built with the site armed is not deterministic";
    return outcome;
  }
  const int armed_pool_size = static_cast<int>(armed_pools[0]->cases.size());
  const int expected = std::min(ref.budget, armed_pool_size);
  const CampaignResult over_armed_pool =
      RunPoolCampaign(armed_pools[0], ref.dialect, options);
  if (over_armed_pool.statements_executed != expected) {
    outcome.detail = "campaign over the armed pool ran " +
                     std::to_string(over_armed_pool.statements_executed) +
                     " statements, expected min(budget, pool size) = " +
                     std::to_string(expected);
    return outcome;
  }

  outcome.ok = true;
  outcome.detail = "error+oom surfaced cleanly after " +
                   std::to_string(stats.fires) + " fire(s); armed campaign ran " +
                   std::to_string(injected[0].statements_executed) +
                   " statements, deterministic; armed pool build deterministic (" +
                   std::to_string(armed_pool_size) + " cases)";
  return outcome;
}

// io.eintr / io.short_write: a payload written through RetryingWriter over a
// pipe arrives bit-identical despite the injected transient faults.
ChaosSiteOutcome CheckRetryingWriterSite(const failpoint::SiteInfo& site) {
  ChaosSiteOutcome outcome = NewOutcome(site, std::string(site.name) + "=after:0:5");
  int fds[2];
  if (::pipe(fds) != 0) {
    outcome.detail = "pipe() failed";
    return outcome;
  }
  std::string payload;
  for (int i = 0; i < 64; ++i) {
    payload += "chaos-retry-record-" + std::to_string(i) + "\n";
  }
  Status write_status;
  failpoint::SiteStats stats;
  const bool armed = RunArmed(outcome.spec, outcome, [&] {
    io::RetryingWriter writer(fds[1]);
    write_status = writer.WriteAll(payload);
    stats = failpoint::Stats(site.name);
  });
  ::close(fds[1]);
  std::string received;
  char chunk[4096];
  for (;;) {
    const int64_t n = io::ReadRetrying(fds[0], chunk, sizeof(chunk));
    if (n <= 0) {
      break;
    }
    received.append(chunk, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  if (!armed) {
    return outcome;
  }
  if (!write_status.ok()) {
    outcome.detail = "retrying write failed: " + write_status.ToString();
    return outcome;
  }
  if (stats.fires == 0) {
    outcome.detail = "site never fired (inventory drift?)";
    return outcome;
  }
  if (received != payload) {
    outcome.detail = "payload corrupted across injected transient faults";
    return outcome;
  }
  outcome.ok = true;
  outcome.detail = "payload bit-identical across " + std::to_string(stats.fires) +
                   " injected fault(s)";
  return outcome;
}

// worker.fork / worker.pipe_write / worker.pipe_read: a real-crash campaign
// with the transient fault armed merges bit-identical to the uninjected
// simulated reference, because the fault is retried or absorbed by the
// supervisor's restart/backoff ladder.
ChaosSiteOutcome CheckWorkerSite(const failpoint::SiteInfo& site,
                                 const References& ref) {
  ChaosSiteOutcome outcome = NewOutcome(site, std::string(site.name) + "=after:0:2");
  CampaignOptions real_options = SmokeOptions(ref.budget);
  real_options.crash_realism = CrashRealism::kReal;
  CampaignResult injected;
  if (!RunArmed(outcome.spec, outcome, [&] {
        injected = RunPoolCampaign(ref.pool, ref.dialect, real_options);
      })) {
    return outcome;
  }
  if (DigestCampaignResult(injected) != DigestCampaignResult(ref.serial)) {
    outcome.detail = "real-crash campaign diverged from simulated reference "
                     "under injected fault";
    return outcome;
  }
  outcome.ok = true;
  outcome.detail = "real-crash campaign bit-identical to simulated reference (" +
                   std::to_string(injected.unique_bugs.size()) + " bugs)";
  return outcome;
}

ChaosSiteOutcome CheckIoErrorSite(const failpoint::SiteInfo& site) {
  ChaosSiteOutcome outcome = NewOutcome(site, std::string(site.name) + "=error");
  const std::string path =
      "chaos_artifact_" + std::to_string(static_cast<long>(::getpid())) + ".txt";
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  struct Cleanup {
    const std::string& p;
    const std::string& t;
    ~Cleanup() {
      ::unlink(p.c_str());
      ::unlink(t.c_str());
    }
  } cleanup{path, tmp_path};

  if (Status baseline = io::WriteFileAtomic(path, "baseline contents\n");
      !baseline.ok()) {
    outcome.detail = "uninjected baseline write failed: " + baseline.ToString();
    return outcome;
  }
  Status injected;
  failpoint::SiteStats stats;
  if (!RunArmed(outcome.spec, outcome, [&] {
        injected = io::WriteFileAtomic(path, "updated contents\n");
        stats = failpoint::Stats(site.name);
      })) {
    return outcome;
  }
  if (injected.ok() || injected.code() != StatusCode::kIoError) {
    outcome.detail = "expected kIoError, got " + injected.ToString();
    return outcome;
  }
  if (stats.fires == 0) {
    outcome.detail = "site never fired (inventory drift?)";
    return outcome;
  }
  if (injected.message().find(path) == std::string::npos) {
    outcome.detail = "error does not name the artifact path: " + injected.ToString();
    return outcome;
  }
  if (ReadFileOrEmpty(path) != "baseline contents\n") {
    outcome.detail = "destination no longer holds its previous contents "
                     "(atomicity violated)";
    return outcome;
  }
  if (::access(tmp_path.c_str(), F_OK) == 0) {
    outcome.detail = "tmp file left behind after failed write";
    return outcome;
  }

  // Disarmed retry produces the artifact the failed attempt was writing.
  if (Status retry = io::WriteFileAtomic(path, "updated contents\n"); !retry.ok()) {
    outcome.detail = "disarmed retry failed: " + retry.ToString();
    return outcome;
  }
  if (ReadFileOrEmpty(path) != "updated contents\n") {
    outcome.detail = "disarmed retry produced wrong contents";
    return outcome;
  }
  outcome.ok = true;
  outcome.detail = "clean kIoError naming the path; destination atomic; retry "
                   "after disarm identical";
  return outcome;
}

ChaosSiteOutcome CheckDegradeSite(const failpoint::SiteInfo& site,
                                  const References& ref) {
  ChaosSiteOutcome outcome = NewOutcome(site, std::string(site.name) + "=error");
  // A campaign writing real checkpoint records, as find_bugs does; the
  // number of sink calls is reported.
  int sink_calls = 0;
  const auto run = [&] {
    CampaignOptions options = SmokeOptions(ref.budget);
    options.checkpoint_every = 50;
    std::ostringstream journal;
    sink_calls = 0;
    options.checkpoint_sink = [&](const CampaignCheckpoint& cp) {
      ++sink_calls;
      telemetry::WriteCheckpointRecord(journal, cp);
      return journal.good();
    };
    return RunPoolCampaign(ref.pool, ref.dialect, options);
  };

  // Reference: sink intact, campaign not degraded.
  const CampaignResult reference = run();
  if (reference.journal_degraded) {
    outcome.detail = "uninjected reference campaign unexpectedly degraded";
    return outcome;
  }
  // Injected: the sink (or the record writer under it) fails mid-campaign.
  CampaignResult injected;
  if (!RunArmed(outcome.spec, outcome, [&] { injected = run(); })) {
    return outcome;
  }
  if (!injected.journal_degraded) {
    outcome.detail = "campaign did not record journal_degraded";
    return outcome;
  }
  if (DigestCampaignResult(injected) != DigestCampaignResult(reference)) {
    outcome.detail = "degraded campaign outcome diverged from reference";
    return outcome;
  }
  outcome.ok = true;
  outcome.detail = "campaign continued degraded (" + std::to_string(sink_calls) +
                   " sink call(s) before loss), outcome bit-identical to reference";
  return outcome;
}

// fleet.* and net.*: the site fires once during a real socket fleet
// campaign; the lease ladder (fleet.*) or the frame validation plus session
// resume (net.*) absorbs it and the merged digest matches the uninjected
// sharded reference.
ChaosSiteOutcome CheckSocketSite(const failpoint::SiteInfo& site,
                                 const References& ref, int site_index) {
  ChaosSiteOutcome outcome = NewOutcome(site, std::string(site.name) + "=after:0:1");
  fleet::FleetOptions fleet;
  fleet.socket_path = "/tmp/soft_chaos_" +
                      std::to_string(static_cast<long>(::getpid())) + "_" +
                      std::to_string(site_index) + ".sock";
  fleet.workers = 2;
  fleet.units = kSocketUnits;
  fleet.heartbeat_every = 50;
  fleet.lease_deadline_ms = 2000;
  // A lost or torn frame leaves its connection silent: a short heartbeat
  // timeout condemns it quickly so the session resumes within the campaign.
  fleet.heartbeat_timeout_ms =
      site.site_class == failpoint::SiteClass::kNet ? 1000 : 5000;

  Result<fleet::FleetOutcome> injected = Internal("not run");
  if (!RunArmed(outcome.spec, outcome, [&] {
        injected = fleet::RunFleetCampaign(ref.dialect, SmokeOptions(ref.budget), fleet);
      })) {
    return outcome;
  }
  if (!injected.ok()) {
    outcome.detail = "fleet campaign failed: " + injected.status().ToString();
    return outcome;
  }
  const fleet::FleetStats& stats = injected->stats;
  if (DigestCampaignResult(injected->result) != ref.sharded_digest) {
    outcome.detail = "merged digest diverged from the uninjected sharded reference";
    return outcome;
  }
  if (outcome.failpoint == "fleet.worker_spawn" && stats.worker_deaths == 0) {
    outcome.detail = "chaos-killed worker never died (injection lost?)";
    return outcome;
  }
  outcome.ok = true;
  outcome.detail =
      "fault absorbed; digest bit-identical (" +
      std::to_string(stats.worker_deaths) + " worker death(s), " +
      std::to_string(stats.leases_reclaimed) + " lease(s) reclaimed, " +
      std::to_string(stats.conns_dropped) + " conn(s) dropped, " +
      std::to_string(stats.sessions_resumed) + " session(s) resumed, " +
      std::to_string(stats.dup_results_deduped) + " dup result(s) deduped)";
  return outcome;
}

}  // namespace

ChaosReport RunChaosEnumeration(const std::string& dialect, int budget) {
  ChaosReport report;
  report.compiled_in = failpoint::kCompiledIn;
  if (!report.compiled_in) {
    return report;  // nothing to inject; vacuously ok
  }
  failpoint::DisarmAll();  // the references are built with nothing armed
  References ref;
  ref.dialect = dialect;
  ref.budget = budget > 0 ? budget : kDefaultBudget;
  const CampaignOptions options = SmokeOptions(ref.budget);
  ref.pool = BuildSoftCasePool(dialect, options, SoftOptions());
  if (ref.pool == nullptr) {
    ChaosSiteOutcome unknown;
    unknown.detail = "unknown dialect '" + dialect + "'";
    report.outcomes.push_back(unknown);
    return report;
  }
  ref.serial = RunPoolCampaign(ref.pool, dialect, options);
  ref.sharded_digest =
      DigestCampaignResult(RunShardedSoftCampaign(dialect, options, kSocketUnits));

  int socket_sites = 0;
  for (const failpoint::SiteInfo& site : failpoint::kInventory) {
    const std::string_view name = site.name;
    if (name.starts_with("fleet.") || name.starts_with("net.")) {
      report.outcomes.push_back(CheckSocketSite(site, ref, socket_sites++));
    } else if (name.starts_with("worker.")) {
      report.outcomes.push_back(CheckWorkerSite(site, ref));
    } else if (site.site_class == failpoint::SiteClass::kEngine) {
      report.outcomes.push_back(CheckEngineSite(site, ref));
    } else if (site.site_class == failpoint::SiteClass::kIoRetry) {
      report.outcomes.push_back(CheckRetryingWriterSite(site));
    } else if (site.site_class == failpoint::SiteClass::kIoError) {
      report.outcomes.push_back(CheckIoErrorSite(site));
    } else {
      report.outcomes.push_back(CheckDegradeSite(site, ref));
    }
  }
  return report;
}

}  // namespace soft
