// NDJSON journal writing/replay and the telemetry JSON serialization. This
// translation unit is compiled in every configuration (it has no campaign
// runtime cost); only the recording hooks in telemetry.cc are gated by
// SOFT_TELEMETRY.
#include "src/telemetry/journal.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/failpoint/failpoint.h"
#include "src/telemetry/telemetry.h"
#include "src/util/io.h"
#include "src/util/json_string.h"

namespace soft {
namespace telemetry {

uint64_t MonotonicNowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

namespace {

void AppendHistogramJson(std::string& out, const LatencyHistogram& h) {
  out += "{\"samples\":" + std::to_string(h.samples);
  out += ",\"total_ns\":" + std::to_string(h.total_ns);
  out += ",\"max_ns\":" + std::to_string(h.max_ns);
  out += ",\"buckets\":[";
  for (size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    if (i != 0) {
      out += ',';
    }
    out += std::to_string(h.buckets[i]);
  }
  out += "]}";
}

// --- Journal lines ---------------------------------------------------------
//
// Every event kind has one field table below: a generic lambda that lists
// the event's keys once, in wire order, as io("key", record.member, spec)
// calls. FieldWriter runs a table to append "key":value pairs; FieldReader
// runs the same table to look each key up in a parsed line and decode it.

// How one field is encoded beyond what its C++ type says.
struct FieldSpec {
  bool optional = false;  // replay accepts lines without it (older journals)
  bool digit = false;     // a bool written as 1/0 rather than true/false
  int decimals = 3;       // fixed-point digits a double is written with
};

class FieldWriter {
 public:
  FieldWriter() : line_("{") {}
  explicit FieldWriter(std::string_view event) : line_("{\"event\":"), first_(false) {
    EscapeJsonString(event, line_);
  }

  void operator()(std::string_view key, const std::string& value, FieldSpec = {}) {
    Key(key);
    EscapeJsonString(value, line_);
  }
  void operator()(std::string_view key, bool value, FieldSpec spec = {}) {
    Key(key);
    line_ += spec.digit ? (value ? "1" : "0") : (value ? "true" : "false");
  }
  template <std::integral T>
  void operator()(std::string_view key, T value, FieldSpec = {}) {
    Key(key);
    line_ += std::to_string(value);
  }
  void operator()(std::string_view key, double value, FieldSpec spec = {}) {
    // Fits %f of any finite double: sign, 309 integer digits, '.', decimals.
    char buf[330];
    std::snprintf(buf, sizeof(buf), "%.*f", spec.decimals, value);
    Key(key);
    line_ += buf;
  }
  // An array of flat objects, each written by `fields`.
  template <class T, class Fields>
  void operator()(std::string_view key, const std::vector<T>& items, Fields fields) {
    Key(key);
    line_ += '[';
    for (size_t i = 0; i < items.size(); ++i) {
      if (i != 0) {
        line_ += ',';
      }
      FieldWriter item;
      fields(item, items[i]);
      line_ += item.line_;
      line_ += '}';
    }
    line_ += ']';
  }

  std::string Line() && { return std::move(line_) + "}\n"; }

 private:
  void Key(std::string_view key) {
    if (!first_) {
      line_ += ',';
    }
    first_ = false;
    EscapeJsonString(key, line_);
    line_ += ':';
  }

  std::string line_;
  bool first_ = true;
};

// One journal line's top-level fields. Strings are decoded through the
// shared codec; numbers and literals keep their token text, so a 64-bit
// digest never passes through a double. The only nesting the journal writes
// is crash_flight's "entries": an array of flat objects.
struct JsonObject;
struct JsonField {
  enum Kind { kString, kToken, kArray };
  std::string key;
  Kind kind = kToken;
  std::string text;               // the decoded string or the raw token
  std::vector<JsonObject> items;  // kArray
};
struct JsonObject {
  std::vector<JsonField> fields;

  const JsonField* Find(std::string_view key) const {
    for (const JsonField& field : fields) {
      if (field.key == key) {
        return &field;
      }
    }
    return nullptr;
  }
};

// Reads one line as a JSON object whose values are strings, number or
// literal tokens, or (at the top level only) arrays of such flat objects.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  bool Read(JsonObject& out) {
    const bool ok = Object(out, /*top_level=*/true);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  bool Object(JsonObject& out, bool top_level) {
    if (!Consume('{')) {
      return false;
    }
    if (Consume('}')) {
      return true;
    }
    do {
      JsonField field;
      if (!String(field.key) || !Consume(':') || !Value(field, top_level)) {
        return false;
      }
      out.fields.push_back(std::move(field));
    } while (Consume(','));
    return Consume('}');
  }

  bool Value(JsonField& field, bool top_level) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '"') {
      field.kind = JsonField::kString;
      return String(field.text);
    }
    if (Consume('[')) {
      field.kind = JsonField::kArray;
      if (!top_level || Consume(']')) {
        return top_level;
      }
      do {
        field.items.emplace_back();
        if (!Object(field.items.back(), /*top_level=*/false)) {
          return false;
        }
      } while (Consume(','));
      return Consume(']');
    }
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.')) {
      ++pos_;
    }
    field.text = std::string(text_.substr(start, pos_ - start));
    return pos_ > start;
  }

  bool String(std::string& out) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    Result<std::string> decoded = DecodeJsonString(text_, pos_);
    if (decoded.ok()) {
      out = std::move(decoded).value();
    }
    return decoded.ok();
  }

  // Skips whitespace, then consumes `c` if it is next.
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

class FieldReader {
 public:
  explicit FieldReader(const JsonObject& object) : object_(object) {}

  bool ok() const { return ok_; }

  void operator()(std::string_view key, std::string& value, FieldSpec spec = {}) {
    if (const JsonField* field = Find(key, spec, JsonField::kString)) {
      value = field->text;
    }
  }
  void operator()(std::string_view key, bool& value, FieldSpec spec = {}) {
    if (const JsonField* field = Find(key, spec, JsonField::kToken)) {
      int64_t number = 0;
      value = field->text == "true" ||
              (field->text != "false" && ParseNumber(field->text, number) && number != 0);
    }
  }
  template <class T>
    requires(std::integral<T> || std::floating_point<T>)
  void operator()(std::string_view key, T& value, FieldSpec spec = {}) {
    if (const JsonField* field = Find(key, spec, JsonField::kToken)) {
      ParseNumber(field->text, value);
    }
  }
  template <class T, class Fields>
  void operator()(std::string_view key, std::vector<T>& items, Fields fields) {
    const JsonField* field = Find(key, FieldSpec(), JsonField::kArray);
    for (size_t i = 0; field != nullptr && ok_ && i < field->items.size(); ++i) {
      FieldReader item_reader(field->items[i]);
      T item;
      fields(item_reader, item);
      ok_ = item_reader.ok();
      items.push_back(std::move(item));
    }
  }

 private:
  // The field under `key`, or nullptr when it is absent (an error unless
  // optional) or of the wrong kind (always an error).
  const JsonField* Find(std::string_view key, FieldSpec spec, JsonField::Kind kind) {
    const JsonField* field = object_.Find(key);
    if (field == nullptr) {
      ok_ = ok_ && spec.optional;
      return nullptr;
    }
    if (field->kind != kind) {
      ok_ = false;
      return nullptr;
    }
    return field;
  }

  template <class T>
  bool ParseNumber(const std::string& token, T& value) {
    const char* end = token.data() + token.size();
    const auto [parsed_end, ec] = std::from_chars(token.data(), end, value);
    const bool parsed = ec == std::errc() && parsed_end == end;
    ok_ = ok_ && parsed;
    return parsed;
  }

  const JsonObject& object_;
  bool ok_ = true;
};

template <class Record, class Fields>
std::string Encode(std::string_view event, const Record& record, Fields fields) {
  FieldWriter writer(event);
  fields(writer, record);
  return std::move(writer).Line();
}

template <class Record, class Fields>
bool Decode(const JsonObject& object, Record& record, Fields fields) {
  FieldReader reader(object);
  fields(reader, record);
  return reader.ok();
}

template <class Record, class Fields>
bool Append(const JsonObject& object, std::vector<Record>& records, Fields fields) {
  Record record;
  if (!Decode(object, record, fields)) {
    return false;
  }
  records.push_back(std::move(record));
  return true;
}

// --- The field table of every event ----------------------------------------

constexpr auto kStartFields = [](auto& io, auto& r) {  // r: JournalReplay
  io("tool", r.tool);
  io("dialect", r.dialect);
  io("seed", r.seed);
  io("budget", r.budget);
  io("shards", r.shards);
};

constexpr auto kCheckpointFields = [](auto& io, auto& r) {  // r: CampaignCheckpoint
  io("every", r.every);
  io("shard", r.shard);
  io("cases_completed", r.cases_completed);
  io("sql_errors", r.sql_errors);
  io("crashes_observed", r.crashes_observed);
  io("false_positives", r.false_positives);
  io("watchdog_timeouts", r.watchdog_timeouts);
  io("unique_bugs", r.unique_bugs);
  io("rng_fingerprint", r.rng_fingerprint);
  io("dedup_digest", r.dedup_digest);
};

constexpr auto kResumeFields = [](auto& io, auto& from_cases) {  // an int
  io("from_cases", from_cases);
};

constexpr auto kChaosFields = [](auto& io, auto& spec) {  // a std::string
  io("spec", spec);
};

struct ShardMerge {
  size_t shard = 0;
  int statements = 0;
};
constexpr auto kShardMergeFields = [](auto& io, auto& r) {  // r: ShardMerge
  io("shard", r.shard, {.optional = true});  // replay keeps line order instead
  io("statements", r.statements);
};

constexpr auto kWitnessFields = [](auto& io, auto& r) {  // r: JournalWitness
  io("bug_id", r.bug_id);
  io("pattern", r.pattern);
  io("statement_index", r.statement_index);
  io("shard", r.shard);
  io("wall_ms", r.wall_ms);
  io("recorded", r.recorded, {.optional = true});
};

constexpr auto kLogicBugFields = [](auto& io, auto& r) {  // r: JournalLogicBug
  io("bug_id", r.bug_id);
  io("oracle", r.oracle);
  io("function", r.function);
  io("effect", r.effect);
  io("scope", r.scope);
  io("case_index", r.case_index);
  io("statement_index", r.statement_index);
  io("shard", r.shard);
  io("poc", r.poc);
  io("witness", r.witness);
};

constexpr auto kFlightEntryFields = [](auto& io, auto& r) {  // r: trace::FlightEntry
  io("index", r.statement_index);
  io("pattern", r.pattern);
  io("stage", r.stage_reached);
  io("outcome", r.outcome);
  io("sql", r.sql);
};

constexpr auto kCrashFlightFields = [](auto& io, auto& r) {  // r: CrashFlightRecord
  io("shard", r.shard);
  io("worker_run", r.worker_run);
  io("announced", r.announced);
  io("bug_id", r.bug_id);
  io("last_checkpoint_cases", r.last_checkpoint_cases);
  io("entries", r.entries, kFlightEntryFields);
};

constexpr auto kLeaseFields = [](auto& io, auto& r) {  // r: JournalLeaseEvent
  io("action", r.action);
  io("unit", r.unit);
  io("worker", r.worker);
  io("cases", r.cases);
  io("unit_digest", r.unit_digest);
};

constexpr auto kWorkerDeathFields = [](auto& io, auto& r) {  // r: JournalWorkerDeath
  io("worker", r.worker);
  io("pid", r.pid);
  io("units_completed", r.units_completed);
  io("reason", r.reason);
};

constexpr auto kFleetFinishFields = [](auto& io, auto& r) {  // r: JournalFleetFinish
  io("units", r.units);
  io("workers_spawned", r.workers_spawned);
  io("worker_deaths", r.worker_deaths);
  io("leases_granted", r.leases_granted);
  io("leases_reclaimed", r.leases_reclaimed);
  io("leases_stolen", r.leases_stolen);
  io("heartbeats", r.heartbeats);
  io("units_completed", r.units_completed);
  io("units_run_locally", r.units_run_locally);
  io("units_resumed", r.units_resumed);
  io("units_spool_diverged", r.units_spool_diverged);
  io("degraded_to_local", r.degraded_to_local, {.digit = true});
};

// The event name carries the kind ("net_" + kind); these are the body.
constexpr auto kNetFields = [](auto& io, auto& r) {  // r: JournalNetEvent
  io("detail", r.detail);
  io("session", r.session);
  io("worker", r.worker);
  io("unit", r.unit);
};

constexpr auto kHealthFields = [](auto& io, auto& r) {  // r: JournalHealthEvent
  io("state", r.state);
  io("reason", r.reason);
  io("statements_per_s", r.statements_per_s, {.decimals = 6});
  io("units_per_s", r.units_per_s, {.decimals = 6});
  io("bugs_per_s", r.bugs_per_s, {.decimals = 6});
  io("reclaims_per_s", r.reclaims_per_s, {.decimals = 6});
  io("redeliveries_per_s", r.redeliveries_per_s, {.decimals = 6});
  io("wall_ms", r.wall_ms, {.decimals = 6});
};

constexpr auto kMetricsSnapshotFields = [](auto& io, auto& r) {  // r: JournalMetricsSnapshot
  io("series", r.series);
  io("statements", r.statements);
  io("units_done", r.units_done);
  io("health", r.health);
  io("wall_ms", r.wall_ms, {.decimals = 6});
};

// Replay has only ever required statements, coverage and wall_ms; the other
// totals stay optional so journals from before the watchdog, sink
// degradation or the logic oracles still replay.
constexpr auto kFinishFields = [](auto& io, auto& r) {  // r: JournalReplay
  io("statements", r.statements_executed);
  io("sql_errors", r.sql_errors, {.optional = true});
  io("crashes_observed", r.crashes_observed, {.optional = true});
  io("false_positives", r.false_positives, {.optional = true});
  io("watchdog_timeouts", r.watchdog_timeouts, {.optional = true});
  io("unique_bugs", r.unique_bug_count, {.optional = true});
  io("logic_checks", r.logic_checks, {.optional = true});
  io("logic_divergences", r.logic_divergences, {.optional = true});
  io("logic_false_positives", r.logic_false_positives, {.optional = true});
  io("logic_bugs", r.logic_bug_count, {.optional = true});
  io("functions_triggered", r.functions_triggered);
  io("branches_covered", r.branches_covered);
  io("journal_degraded", r.journal_degraded, {.optional = true, .digit = true});
  io("wall_ms", r.wall_ms);
};

double NsToMs(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

std::string CampaignTelemetry::ToJson() const {
  std::string out = "{\"stages\":{";
  for (size_t i = 0; i < kStageCount; ++i) {
    if (i != 0) {
      out += ',';
    }
    out += "\"";
    out += kStageKeys[i];
    out += "\":";
    AppendHistogramJson(out, stage_latency[i]);
  }
  out += "},\"patterns\":{";
  bool first = true;
  for (const auto& [pattern, counters] : patterns) {
    if (!first) {
      out += ',';
    }
    first = false;
    EscapeJsonString(pattern, out);
    out += ":{";
    out += "\"generated\":" + std::to_string(counters.generated);
    out += ",\"executed\":" + std::to_string(counters.executed);
    out += ",\"crashes\":" + std::to_string(counters.crashes);
    out += ",\"bugs_deduped\":" + std::to_string(counters.bugs_deduped);
    out += ",\"sql_errors\":" + std::to_string(counters.sql_errors);
    out += ",\"false_positives\":" + std::to_string(counters.false_positives);
    out += ",\"timeouts\":" + std::to_string(counters.timeouts);
    out += ",\"logic_checks\":" + std::to_string(counters.logic_checks);
    out += ",\"logic_bugs\":" + std::to_string(counters.logic_bugs);
    out += "}";
  }
  out += "}}";
  return out;
}

void WriteCampaignStart(std::ostream& out, const CampaignOptions& options,
                        const std::string& tool, const std::string& dialect,
                        int shards) {
  JournalReplay start;
  start.tool = tool;
  start.dialect = dialect;
  start.seed = options.seed;
  start.budget = options.max_statements;
  start.shards = shards;
  out << Encode("campaign_start", start, kStartFields);
}

void WriteCheckpointRecord(std::ostream& out, const CampaignCheckpoint& checkpoint) {
  // journal.checkpoint_write: the stream goes bad exactly as a full disk
  // would make it — sinks that check stream state (find_bugs) then latch
  // journal degradation and the campaign continues without checkpoints.
  if (SOFT_FAILPOINT_HIT("journal.checkpoint_write")) {
    out.setstate(std::ios_base::badbit);
    return;
  }
  out << Encode("checkpoint", checkpoint, kCheckpointFields);
}

std::string DescribeCheckpointDivergence(const CampaignCheckpoint& journal,
                                         const CampaignCheckpoint& replayed) {
  JsonObject a;
  JsonObject b;
  LineReader(Encode("checkpoint", journal, kCheckpointFields)).Read(a);
  LineReader(Encode("checkpoint", replayed, kCheckpointFields)).Read(b);
  std::string out;
  for (size_t i = 0; i < a.fields.size(); ++i) {
    if (a.fields[i].text != b.fields[i].text) {
      out += (out.empty() ? "" : "; ") + a.fields[i].key + " journal=" + a.fields[i].text +
             " replay=" + b.fields[i].text;
    }
  }
  return out.empty() ? "no field differs" : out;
}

void WriteResumeMarker(std::ostream& out, int from_cases) {
  out << Encode("campaign_resume", from_cases, kResumeFields);
}

void WriteChaosMarker(std::ostream& out, const std::string& spec) {
  out << Encode("chaos", spec, kChaosFields);
}

void WriteLeaseEvent(std::ostream& out, const JournalLeaseEvent& event) {
  out << Encode("lease", event, kLeaseFields);
}

void WriteWorkerDeathEvent(std::ostream& out, const JournalWorkerDeath& event) {
  out << Encode("worker_death", event, kWorkerDeathFields);
}

void WriteFleetFinishEvent(std::ostream& out, const JournalFleetFinish& event) {
  out << Encode("fleet_finish", event, kFleetFinishFields);
}

void WriteNetEvent(std::ostream& out, const JournalNetEvent& event) {
  out << Encode("net_" + event.kind, event, kNetFields);
}

void WriteHealthEvent(std::ostream& out, const JournalHealthEvent& event) {
  out << Encode("health", event, kHealthFields);
}

void WriteMetricsSnapshotEvent(std::ostream& out,
                               const JournalMetricsSnapshot& event) {
  out << Encode("metrics_snapshot", event, kMetricsSnapshotFields);
}

void WriteCampaignTail(std::ostream& out, const CampaignResult& result,
                       uint64_t wall_ns) {
  for (size_t i = 0; i < result.shard_statements.size(); ++i) {
    out << Encode("shard_merge", ShardMerge{i, result.shard_statements[i]},
                  kShardMergeFields);
  }
  for (const FoundBug& bug : result.unique_bugs) {
    JournalWitness witness;
    witness.bug_id = bug.crash.bug_id;
    witness.pattern = bug.found_by;
    witness.statement_index = bug.statements_until_found;
    witness.shard = bug.shard;
    witness.wall_ms = NsToMs(static_cast<uint64_t>(bug.found_wall_ns));
    witness.recorded = bug.wall_recorded;
    out << Encode("first_witness", witness, kWitnessFields);
  }
  for (const FoundLogicBug& bug : result.logic_bugs) {
    JournalLogicBug event;
    event.bug_id = bug.info.bug_id;
    event.oracle = bug.oracle;
    event.function = bug.info.function;
    event.effect = LogicEffectName(bug.info.effect);
    event.scope = LogicScopeName(bug.info.scope);
    event.case_index = bug.case_index;
    event.statement_index = bug.statements_until_found;
    event.shard = bug.shard;
    event.poc = bug.poc_sql;
    event.witness = bug.witness;
    out << Encode("logic_bug", event, kLogicBugFields);
  }
  for (const trace::CrashFlightRecord& flight : result.crash_flights) {
    out << Encode("crash_flight", flight, kCrashFlightFields);
  }
  JournalReplay finish;
  finish.statements_executed = result.statements_executed;
  finish.sql_errors = result.sql_errors;
  finish.crashes_observed = result.crashes_observed;
  finish.false_positives = result.false_positives;
  finish.watchdog_timeouts = result.watchdog_timeouts;
  finish.unique_bug_count = static_cast<int>(result.unique_bugs.size());
  finish.logic_checks = result.logic_checks;
  finish.logic_divergences = result.logic_divergences;
  finish.logic_false_positives = result.logic_false_positives;
  finish.logic_bug_count = static_cast<int>(result.logic_bugs.size());
  finish.functions_triggered = result.functions_triggered;
  finish.branches_covered = result.branches_covered;
  finish.journal_degraded = result.journal_degraded;
  finish.wall_ms = NsToMs(wall_ns);
  out << Encode("campaign_finish", finish, kFinishFields);
}

void WriteCampaignJournal(std::ostream& out, const CampaignOptions& options,
                          const CampaignResult& result, uint64_t wall_ns) {
  WriteCampaignStart(out, options, result.tool, result.dialect, result.shards);
  WriteCampaignTail(out, result, wall_ns);
}

std::set<int> JournalReplay::BugIds() const {
  std::set<int> ids;
  for (const JournalWitness& witness : witnesses) {
    ids.insert(witness.bug_id);
  }
  return ids;
}

std::set<int> JournalReplay::LogicBugIds() const {
  std::set<int> ids;
  for (const JournalLogicBug& bug : logic_bugs) {
    ids.insert(bug.bug_id);
  }
  return ids;
}

Result<JournalReplay> ReplayJournal(std::istream& in) {
  JournalReplay replay;
  bool started = false;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string where = "journal line " + std::to_string(line_no);
    // Torn-tail rule: every writer emits the terminating '\n' as the last
    // byte of a record, so a final line that hits EOF without one is a
    // record the producer died inside (the kill -9 case). It is dropped —
    // the journal replays up to the last intact record — and flagged so
    // --resume knows the file was truncated. A '\n'-terminated line that
    // fails to parse is still a hard error: that is corruption, not tearing.
    if (in.eof()) {
      if (!line.empty()) {
        replay.torn_tail = true;
      }
      break;
    }
    if (line.empty()) {
      continue;
    }
    JsonObject object;
    if (!LineReader(line).Read(object)) {
      return InvalidArgument(where + ": not a JSON object");
    }
    const JsonField* event_field = object.Find("event");
    if (event_field == nullptr || event_field->kind != JsonField::kString) {
      return InvalidArgument(where + ": missing \"event\" field");
    }
    const std::string& event = event_field->text;
    bool ok = true;
    if (event == "campaign_start") {
      ok = Decode(object, replay, kStartFields);
      started = true;
    } else if (event == "shard_merge") {
      ShardMerge merge;
      ok = Decode(object, merge, kShardMergeFields);
      replay.shard_statements.push_back(merge.statements);
    } else if (event == "first_witness") {
      ok = Append(object, replay.witnesses, kWitnessFields);
      // Absent in journals written before the recorded flag existed: fall
      // back to the old (ambiguous) inference — nonzero wall means recorded.
      if (ok && object.Find("recorded") == nullptr) {
        replay.witnesses.back().recorded = replay.witnesses.back().wall_ms != 0.0;
      }
    } else if (event == "logic_bug") {
      ok = Append(object, replay.logic_bugs, kLogicBugFields);
    } else if (event == "crash_flight") {
      ok = Append(object, replay.crash_flights, kCrashFlightFields);
    } else if (event == "checkpoint") {
      ok = Append(object, replay.checkpoints, kCheckpointFields);
    } else if (event == "lease") {
      ok = Append(object, replay.lease_events, kLeaseFields);
    } else if (event == "worker_death") {
      ok = Append(object, replay.worker_deaths, kWorkerDeathFields);
    } else if (event == "fleet_finish") {
      ok = Decode(object, replay.fleet, kFleetFinishFields);
      replay.fleet_finished = true;
    } else if (event == "health") {
      ok = Append(object, replay.health_events, kHealthFields);
    } else if (event == "metrics_snapshot") {
      ok = Append(object, replay.metrics_snapshots, kMetricsSnapshotFields);
    } else if (event == "net_session" || event == "net_disconnect" ||
               event == "net_redeliver" || event == "net_dup_result") {
      ok = Append(object, replay.net_events, kNetFields);
      if (ok) {
        replay.net_events.back().kind = event.substr(4);
      }
    } else if (event == "campaign_resume") {
      int from_cases = 0;
      ok = Decode(object, from_cases, kResumeFields);
      ++replay.resume_markers;
    } else if (event == "chaos") {
      ok = Append(object, replay.chaos_specs, kChaosFields);
    } else if (event == "campaign_finish") {
      ok = Decode(object, replay, kFinishFields);
      replay.finished = true;
    } else {
      return InvalidArgument(where + ": unknown event '" + event + "'");
    }
    if (!ok) {
      return InvalidArgument(where + ": malformed " + event);
    }
  }
  if (!started) {
    return InvalidArgument("journal has no campaign_start event");
  }
  return replay;
}

Status WriteCampaignJournalFile(const std::string& path, const CampaignOptions& options,
                                const CampaignResult& result, uint64_t wall_ns) {
  // Serialize in memory, then write tmp+fsync+rename: the journal path
  // either keeps its previous contents or gets the complete new stream —
  // never a silent prefix (the pre-existing bug: write errors after a
  // successful open were never checked).
  std::ostringstream out;
  WriteCampaignJournal(out, options, result, wall_ns);
  if (!out) {
    return IoError("serializing journal for '" + path + "' failed");
  }
  return io::WriteFileAtomic(path, out.str());
}

Result<JournalReplay> ReplayJournalFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return InvalidArgument("cannot open journal file '" + path + "'");
  }
  return ReplayJournal(in);
}

// --- Chrome trace-event export ---------------------------------------------

namespace {

// Microseconds with nanosecond precision: Chrome's ts/dur unit is µs, and
// three decimals keep the exported numbers exact (ns / 1000, remainder as
// the fraction), so parent/child nesting survives the unit conversion.
std::string FormatTraceUs(uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

std::string FormatSpanId(uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(id));
  return buf;
}

// Timeline process for a span: campaign root on pid 0, shard i on pid i+1 —
// each (pid, tid 0) lane then holds a properly nested interval tree, which
// is what tools/check_trace_json.py asserts.
int TracePid(const trace::TraceSpan& span) {
  return span.kind == trace::SpanKind::kCampaign ? 0 : span.shard + 1;
}

void AppendProcessName(std::string& out, int pid, const std::string& name) {
  out += "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":0,\"ts\":0,\"name\":\"process_name\",\"args\":{\"name\":" +
         JsonQuote(name) + "}}";
}

}  // namespace

Status WriteChromeTraceFile(const std::string& path, const CampaignResult& result) {
  std::string out = "{\"traceEvents\":[";
  AppendProcessName(out, 0,
                    "campaign " + result.tool + "/" + result.dialect);
  const int shards = std::max(result.shards, 1);
  for (int shard = 0; shard < shards; ++shard) {
    out += ',';
    AppendProcessName(out, shard + 1, "shard " + std::to_string(shard));
  }
  for (const trace::TraceSpan& span : result.trace.spans) {
    out += ",{\"ph\":\"X\",\"pid\":" + std::to_string(TracePid(span)) +
           ",\"tid\":0,\"ts\":" + FormatTraceUs(span.start_ns) +
           ",\"dur\":" + FormatTraceUs(span.dur_ns) + ",\"name\":\"" +
           std::string(trace::SpanKindName(span.kind)) + "\",\"cat\":\"" +
           std::string(trace::SpanKindName(span.kind)) +
           "\",\"args\":{\"span_id\":\"" + FormatSpanId(span.id) + "\"";
    if (span.parent_id != 0) {
      out += ",\"parent_id\":\"" + FormatSpanId(span.parent_id) + "\"";
    }
    for (const auto& [key, value] : span.args) {
      out += "," + JsonQuote(key) + ":" + JsonQuote(value);
    }
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return io::WriteFileAtomic(path, out);
}

}  // namespace telemetry
}  // namespace soft
