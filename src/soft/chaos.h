// Chaos campaigns: systematically inject a fault at every registered
// failpoint and verify the harness degrades the way docs/ROBUSTNESS.md
// promises. This is the acceptance oracle for the failpoint subsystem, run
// by tests/chaos_test.cc and the asan CI job (`find_bugs --chaos=enumerate`).
//
// Per-site oracle, chosen by the site's SiteClass (failpoint.h documents the
// classes) and, for the io-retry sites, by where the site lives:
//
//   kEngine    a fixed driver statement through the site surfaces a clean
//              kResourceExhausted (error mode) — and under oom mode the
//              thrown bad_alloc is caught at the Execute boundary. The case
//              pool is built unarmed and the site armed only for the
//              statement loop: that campaign runs exactly the uninjected
//              baseline's statement count and is run-to-run deterministic.
//              Setup-time injection is checked apart from it: two pool
//              builds with the site armed are identical, and a campaign over
//              that pool runs min(budget, pool size) statements.
//   kIoRetry   the fault is absorbed by a retry loop: io.* payloads through
//              RetryingWriter arrive bit-identical; a worker.* fault leaves
//              a forked real-crash campaign bit-identical to the uninjected
//              simulated reference.
//   kIoError   the artifact write fails with kIoError naming the path, the
//              destination keeps its previous contents, no tmp file is left
//              behind; after disarming, the identical artifact is produced.
//   kDegrade   the campaign continues without its checkpoint sink, latches
//              CampaignResult::journal_degraded, and its deterministic
//              outcome (bug set, counters, coverage) is bit-identical to
//              the uninjected run.
//   fleet.*    (kIoRetry) and net.* (kNet): the site fires once during a
//              real socket fleet campaign (2 workers, 4 units); the lease,
//              frame and session-resume ladders absorb it and the merged
//              digest is bit-identical to the uninjected 4-shard reference.
//              fleet.worker_spawn must also cost at least one worker death.
#ifndef SRC_SOFT_CHAOS_H_
#define SRC_SOFT_CHAOS_H_

#include <string>
#include <vector>

#include "src/soft/campaign.h"

namespace soft {

struct ChaosSiteOutcome {
  std::string failpoint;  // site name from failpoint::kInventory
  std::string site_class; // SiteClassName of the site
  std::string spec;       // the chaos spec the smoke run armed
  bool ok = false;        // oracle verdict
  std::string detail;     // human-readable oracle evidence / failure reason
};

struct ChaosReport {
  bool compiled_in = false;  // failpoint::kCompiledIn
  std::vector<ChaosSiteOutcome> outcomes;

  // True when every site's oracle held (vacuously true when failpoints are
  // compiled out — there is nothing to inject).
  bool ok() const {
    for (const ChaosSiteOutcome& outcome : outcomes) {
      if (!outcome.ok) {
        return false;
      }
    }
    return true;
  }
};

// Stable digest over a campaign result's deterministic fields (counters,
// bug set with witnesses, coverage, per-shard statement breakdown).
// Wall-clock quantities (found_wall_ns, telemetry latencies) are excluded,
// matching the parallel runner's bit-identity contract; journal_degraded is
// excluded too, so a degraded campaign can be compared against its intact
// reference. Exposed for the chaos tests' sharded-identity assertions.
uint64_t DigestCampaignResult(const CampaignResult& result);

// Stable digest over the campaign's *bug inventory* alone: the dialect plus
// the sorted crash-bug ids and sorted logic-bug ids. Unlike
// DigestCampaignResult it folds no shard structure, witnesses, or counters,
// so it is bit-identical between a serial run, a --shards=K run, and a
// fleet campaign at any worker count — the parity oracle the asan CI job
// greps (`find_bugs` prints it as `bug digest`).
uint64_t DigestBugInventory(const CampaignResult& result);

// Stable digest over a campaign's wrong-result outcome: the logic counters
// and, per logic bug, only shard-invariant identity (bug id, flagging
// oracle, PoC statement, global case index). statements_until_found and
// shard are shard-LOCAL attribution detail and are deliberately excluded —
// this digest is bit-identical between a serial campaign and any
// partition-sharded run of the same options (find_bugs prints it as
// `logic digest`).
uint64_t DigestLogicOutcome(const CampaignResult& result);

// Runs the oracle once per inventory site. `budget` bounds each smoke
// campaign's statement count (<= 0 selects the default, 600). Forks workers
// and binds sockets, so it stays out of the TSan lane. Defined in the
// soft_chaos library (it drives fleet campaigns); the digests above are in
// soft_core.
ChaosReport RunChaosEnumeration(const std::string& dialect, int budget);

}  // namespace soft

#endif  // SRC_SOFT_CHAOS_H_
