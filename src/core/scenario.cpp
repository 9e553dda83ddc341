#include "reldev/core/scenario.hpp"

#include <atomic>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>

#include <unistd.h>

namespace reldev::core {

namespace {

Status syntax_error(std::size_t line, const std::string& what) {
  return errors::invalid_argument("line " + std::to_string(line) + ": " +
                                  what);
}

Status expectation_failed(std::size_t line, const std::string& what) {
  return errors::conflict("line " + std::to_string(line) + ": " + what);
}

Result<std::uint64_t> parse_number(std::size_t line, const std::string& text,
                                   const char* what) {
  try {
    std::size_t used = 0;
    const std::uint64_t value = std::stoull(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    return syntax_error(line, std::string("bad ") + what + " '" + text + "'");
  }
}

storage::BlockData text_payload(const std::string& text,
                                std::size_t block_size) {
  storage::BlockData data(block_size, std::byte{0});
  std::memcpy(data.data(), text.data(), std::min(text.size(), block_size));
  return data;
}

std::string payload_text(const storage::BlockData& data) {
  std::string text(reinterpret_cast<const char*>(data.data()), data.size());
  const auto nul = text.find('\0');
  return nul == std::string::npos ? text : text.substr(0, nul);
}

Result<double> parse_probability(std::size_t line, const std::string& text,
                                 const char* what) {
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    if (value < 0.0 || value > 1.0) {
      return syntax_error(line,
                         std::string(what) + " must be in [0, 1]: " + text);
    }
    return value;
  } catch (const std::exception&) {
    return syntax_error(line, std::string("bad ") + what + " '" + text + "'");
  }
}

/// Commands that take a configuration value before any action runs.
bool is_config_command(const std::string& command) {
  return command == "sites" || command == "blocks" || command == "scheme" ||
         command == "fault-seed" || command == "store";
}

const std::vector<std::pair<std::string, std::size_t>> kArity{
    {"crash", 1},       {"recover", 1},   {"comeback", 1},
    {"retry", 0},       {"write", 3},     {"fail-write", 3},
    {"read", 3},        {"fail-read", 2}, {"partition", 2},
    {"heal", 0},        {"expect-state", 2}, {"expect-available", 1},
    {"write-range", 4}, {"fail-write-range", 4}, {"read-range", 4},
    {"drop-rate", 3},   {"delay-ms", 3},  {"dup-rate", 3},
    {"corrupt-rate", 3}, {"block-link", 2},
    {"sync-site", 1},   {"arm-crash", 3}, {"crash-site", 1},
    {"restart-site", 1}, {"checkpoint-site", 1},
    {"scrub-interval", 1}, {"scrub-throttle", 2}, {"scrub-site", 1},
    {"scrub-wait", 1},
};

/// Commands that only make sense over file-backed stores.
bool needs_file_store(const std::string& command) {
  return command == "arm-crash" || command == "crash-site" ||
         command == "restart-site" || command == "checkpoint-site";
}

/// A private temp directory for one file-backed scenario run, removed on
/// destruction (best effort).
class ScratchDirectory {
 public:
  ScratchDirectory() {
    static std::atomic<std::uint64_t> counter{0};
    path_ = std::filesystem::temp_directory_path() /
            ("reldev_scenario_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(path_);
  }
  ~ScratchDirectory() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDirectory(const ScratchDirectory&) = delete;
  ScratchDirectory& operator=(const ScratchDirectory&) = delete;

  [[nodiscard]] std::string string() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

}  // namespace

Result<Scenario> Scenario::parse(const std::string& text) {
  Scenario scenario;
  std::istringstream input(text);
  std::string raw_line;
  std::size_t line = 0;
  bool actions_started = false;

  while (std::getline(input, raw_line)) {
    ++line;
    // Strip comments and surrounding whitespace.
    const auto hash = raw_line.find('#');
    std::string body =
        hash == std::string::npos ? raw_line : raw_line.substr(0, hash);
    std::istringstream tokens(body);
    std::vector<std::string> words;
    for (std::string word; tokens >> word;) words.push_back(word);
    if (words.empty()) continue;

    const std::string command = words[0];
    std::vector<std::string> args(words.begin() + 1, words.end());

    if (is_config_command(command)) {
      if (actions_started) {
        return syntax_error(line, command + " must precede all actions");
      }
      if (args.size() != 1) {
        return syntax_error(line, command + " takes one argument");
      }
      if (command == "sites") {
        auto n = parse_number(line, args[0], "site count");
        if (!n) return n.status();
        if (n.value() < 1 || n.value() > 16) {
          return syntax_error(line, "sites must be 1..16");
        }
        scenario.sites = n.value();
      } else if (command == "blocks") {
        auto n = parse_number(line, args[0], "block count");
        if (!n) return n.status();
        if (n.value() < 1 || n.value() > 4096) {
          return syntax_error(line, "blocks must be 1..4096");
        }
        scenario.blocks = n.value();
      } else if (command == "fault-seed") {
        auto n = parse_number(line, args[0], "fault seed");
        if (!n) return n.status();
        scenario.fault_seed = n.value();
      } else if (command == "store") {
        if (args[0] == "mem") {
          scenario.file_store = false;
          scenario.journal = false;
        } else if (args[0] == "file") {
          scenario.file_store = true;
          scenario.journal = false;
        } else if (args[0] == "journal") {
          scenario.file_store = true;
          scenario.journal = true;
        } else {
          return syntax_error(line, "store takes mem, file, or journal");
        }
      } else {  // scheme
        auto scheme = scheme_kind_from_name(args[0]);
        if (!scheme) return syntax_error(line, scheme.status().message());
        scenario.scheme = scheme.value();
      }
      continue;
    }

    bool known = false;
    for (const auto& [name, arity] : kArity) {
      if (command != name) continue;
      known = true;
      if (args.size() != arity) {
        return syntax_error(line, command + " takes " +
                                      std::to_string(arity) + " argument(s)");
      }
      break;
    }
    if (!known) return syntax_error(line, "unknown command '" + command + "'");
    if (needs_file_store(command) && !scenario.file_store) {
      return syntax_error(line, command + " requires `store file`");
    }
    if (command == "checkpoint-site" && !scenario.journal) {
      return syntax_error(line, command + " requires `store journal`");
    }
    actions_started = true;
    scenario.steps.push_back(ScenarioStep{line, command, std::move(args)});
  }
  return scenario;
}

Result<ScenarioOutcome> run_scenario(const Scenario& scenario) {
  const GroupConfig config = GroupConfig::majority(
      scenario.sites, scenario.blocks, scenario.block_size);
  std::optional<ScratchDirectory> scratch;
  std::optional<ReplicaGroup> built;
  if (scenario.file_store) {
    scratch.emplace();
    PersistentOptions persist;
    persist.directory = scratch->string();
    persist.journal = scenario.journal;
    built.emplace(scenario.scheme, config, std::move(persist));
  } else {
    built.emplace(scenario.scheme, config);
  }
  ReplicaGroup& group = *built;
  group.faults().reseed(scenario.fault_seed);
  ScenarioOutcome outcome;
  // Scrub knobs accumulate across scrub-interval / scrub-throttle steps.
  ScrubOptions scrub_options;

  const auto site_of = [&](std::size_t line,
                           const std::string& text) -> Result<SiteId> {
    auto value = parse_number(line, text, "site id");
    if (!value) return value.status();
    if (value.value() >= scenario.sites) {
      return syntax_error(line, "site " + text + " out of range");
    }
    return static_cast<SiteId>(value.value());
  };
  const auto block_of = [&](std::size_t line,
                            const std::string& text) -> Result<BlockId> {
    auto value = parse_number(line, text, "block id");
    if (!value) return value.status();
    if (value.value() >= scenario.blocks) {
      return syntax_error(line, "block " + text + " out of range");
    }
    return value.value();
  };
  const auto note = [&](const ScenarioStep& step, const std::string& text) {
    outcome.transcript.push_back("line " + std::to_string(step.line) + ": " +
                                 step.command + " -> " + text);
  };

  for (const auto& step : scenario.steps) {
    ++outcome.steps_executed;
    const std::size_t line = step.line;

    if (step.command == "crash") {
      auto site = site_of(line, step.args[0]);
      if (!site) return site.status();
      group.crash_site(site.value());
      note(step, "site " + step.args[0] + " failed");
    } else if (step.command == "recover" || step.command == "comeback") {
      auto site = site_of(line, step.args[0]);
      if (!site) return site.status();
      group.transport().set_up(site.value(), true);
      const Status status = group.replica(site.value()).recover();
      group.retry_comatose();
      if (step.command == "recover" && !status.is_ok()) {
        return expectation_failed(
            line, "recovery of site " + step.args[0] +
                      " was expected to succeed: " + status.to_string());
      }
      note(step, status.to_string());
    } else if (step.command == "retry") {
      const std::size_t recovered = group.retry_comatose();
      note(step, std::to_string(recovered) + " site(s) became available");
    } else if (step.command == "write" || step.command == "fail-write") {
      auto via = site_of(line, step.args[0]);
      if (!via) return via.status();
      auto block = block_of(line, step.args[1]);
      if (!block) return block.status();
      const Status status =
          group.write(via.value(), block.value(),
                      text_payload(step.args[2], scenario.block_size));
      const bool want_success = step.command == "write";
      if (status.is_ok() != want_success) {
        return expectation_failed(
            line, std::string("write was expected to ") +
                      (want_success ? "succeed" : "fail") + " but " +
                      (status.is_ok() ? "succeeded" : status.to_string()));
      }
      note(step, status.to_string());
    } else if (step.command == "read" || step.command == "fail-read") {
      auto via = site_of(line, step.args[0]);
      if (!via) return via.status();
      auto block = block_of(line, step.args[1]);
      if (!block) return block.status();
      auto data = group.read(via.value(), block.value());
      if (step.command == "fail-read") {
        if (data.is_ok()) {
          return expectation_failed(line, "read was expected to fail");
        }
        note(step, data.status().to_string());
      } else {
        if (!data.is_ok()) {
          return expectation_failed(
              line, "read was expected to succeed: " +
                        data.status().to_string());
        }
        const std::string got = payload_text(data.value());
        if (got != step.args[2]) {
          return expectation_failed(line, "read returned '" + got +
                                              "', expected '" + step.args[2] +
                                              "'");
        }
        note(step, "'" + got + "'");
      }
    } else if (step.command == "write-range" ||
               step.command == "fail-write-range") {
      auto via = site_of(line, step.args[0]);
      if (!via) return via.status();
      auto first = block_of(line, step.args[1]);
      if (!first) return first.status();
      auto count = parse_number(line, step.args[2], "block count");
      if (!count) return count.status();
      if (count.value() == 0 ||
          count.value() > scenario.blocks - first.value()) {
        return syntax_error(line, "range out of bounds");
      }
      // The payload repeats the text in every block of the range.
      const storage::BlockData one =
          text_payload(step.args[3], scenario.block_size);
      storage::BlockData payload;
      payload.reserve(count.value() * scenario.block_size);
      for (std::uint64_t i = 0; i < count.value(); ++i) {
        payload.insert(payload.end(), one.begin(), one.end());
      }
      const Status status =
          group.write_range(via.value(), first.value(), payload);
      const bool want_success = step.command == "write-range";
      if (status.is_ok() != want_success) {
        return expectation_failed(
            line, std::string("write-range was expected to ") +
                      (want_success ? "succeed" : "fail") + " but " +
                      (status.is_ok() ? "succeeded" : status.to_string()));
      }
      note(step, status.to_string());
    } else if (step.command == "read-range") {
      auto via = site_of(line, step.args[0]);
      if (!via) return via.status();
      auto first = block_of(line, step.args[1]);
      if (!first) return first.status();
      auto count = parse_number(line, step.args[2], "block count");
      if (!count) return count.status();
      if (count.value() == 0 ||
          count.value() > scenario.blocks - first.value()) {
        return syntax_error(line, "range out of bounds");
      }
      auto data = group.read_range(via.value(), first.value(), count.value());
      if (!data.is_ok()) {
        return expectation_failed(line, "read-range was expected to succeed: " +
                                            data.status().to_string());
      }
      for (std::uint64_t i = 0; i < count.value(); ++i) {
        const storage::BlockData one(
            data.value().begin() +
                static_cast<std::ptrdiff_t>(i * scenario.block_size),
            data.value().begin() +
                static_cast<std::ptrdiff_t>((i + 1) * scenario.block_size));
        const std::string got = payload_text(one);
        if (got != step.args[3]) {
          return expectation_failed(
              line, "read-range block " +
                        std::to_string(first.value() + i) + " returned '" +
                        got + "', expected '" + step.args[3] + "'");
        }
      }
      note(step, "'" + step.args[3] + "' x " + step.args[2]);
    } else if (step.command == "partition") {
      auto site = site_of(line, step.args[0]);
      if (!site) return site.status();
      auto part = parse_number(line, step.args[1], "partition group");
      if (!part) return part.status();
      group.transport().set_partition_group(site.value(),
                                            static_cast<int>(part.value()));
      note(step, "site " + step.args[0] + " in partition " + step.args[1]);
    } else if (step.command == "heal") {
      group.transport().clear_partitions();
      group.faults().heal();
      note(step, "partitions and fault rules cleared");
    } else if (step.command == "drop-rate" || step.command == "dup-rate" ||
               step.command == "corrupt-rate" ||
               step.command == "delay-ms") {
      auto from = site_of(line, step.args[0]);
      if (!from) return from.status();
      auto to = site_of(line, step.args[1]);
      if (!to) return to.status();
      net::FaultRule rule =
          group.faults().link_rule(from.value(), to.value());
      if (step.command == "delay-ms") {
        auto ms = parse_number(line, step.args[2], "delay");
        if (!ms) return ms.status();
        rule.delay = std::chrono::milliseconds(ms.value());
      } else {
        auto p = parse_probability(line, step.args[2], "probability");
        if (!p) return p.status();
        if (step.command == "drop-rate") {
          rule.drop = p.value();
        } else if (step.command == "dup-rate") {
          rule.duplicate = p.value();
        } else {
          rule.corrupt = p.value();
        }
      }
      group.faults().set_link_rule(from.value(), to.value(), rule);
      note(step, "link " + step.args[0] + "->" + step.args[1] + " " +
                     step.command + " " + step.args[2]);
    } else if (step.command == "block-link") {
      auto from = site_of(line, step.args[0]);
      if (!from) return from.status();
      auto to = site_of(line, step.args[1]);
      if (!to) return to.status();
      group.faults().block_link(from.value(), to.value());
      note(step, "link " + step.args[0] + "->" + step.args[1] + " blocked");
    } else if (step.command == "sync-site") {
      auto site = site_of(line, step.args[0]);
      if (!site) return site.status();
      const Status status = group.sync_site(site.value());
      if (!status.is_ok()) {
        // An armed crash point firing during the sync is the expected way
        // to tear a commit; anything else is a real failure.
        if (!scenario.file_store ||
            !group.crash_points(site.value()).crashed()) {
          return expectation_failed(line,
                                    "sync of site " + step.args[0] +
                                        " failed: " + status.to_string());
        }
        note(step, "armed crash fired during sync");
      } else {
        note(step, "site " + step.args[0] + " synced");
      }
    } else if (step.command == "arm-crash") {
      auto site = site_of(line, step.args[0]);
      if (!site) return site.status();
      const storage::CrashPoint point =
          storage::crash_point_from_name(step.args[1]);
      if (point == storage::CrashPoint::kNone) {
        return syntax_error(line, "unknown crash point '" + step.args[1] + "'");
      }
      const auto in = [point](auto& list) {
        for (const storage::CrashPoint p : list) {
          if (p == point) return true;
        }
        return false;
      };
      if (scenario.journal ? !in(storage::kJournalCrashPoints)
                           : !in(storage::kAllCrashPoints)) {
        return syntax_error(line, "crash point '" + step.args[1] +
                                      "' not available with this store mode");
      }
      auto nth = parse_number(line, step.args[2], "event index");
      if (!nth) return nth.status();
      group.crash_points(site.value())
          .arm(storage::CrashSchedule{point, nth.value()});
      note(step, "site " + step.args[0] + " armed at " + step.args[1] +
                     " #" + step.args[2]);
    } else if (step.command == "checkpoint-site") {
      auto site = site_of(line, step.args[0]);
      if (!site) return site.status();
      const Status status = group.checkpoint_site(site.value());
      if (!status.is_ok()) {
        // An armed checkpoint crash point firing here is the expected way
        // to tear a checkpoint; anything else is a real failure.
        if (!group.crash_points(site.value()).crashed()) {
          return expectation_failed(line,
                                    "checkpoint of site " + step.args[0] +
                                        " failed: " + status.to_string());
        }
        note(step, "armed crash fired during checkpoint");
      } else {
        note(step, "site " + step.args[0] + " checkpointed");
      }
    } else if (step.command == "crash-site") {
      auto site = site_of(line, step.args[0]);
      if (!site) return site.status();
      group.kill_site(site.value());
      note(step, "site " + step.args[0] + " killed (store handle dropped)");
    } else if (step.command == "restart-site") {
      auto site = site_of(line, step.args[0]);
      if (!site) return site.status();
      const Status status = group.restart_site(site.value());
      if (!status.is_ok() && status.code() != ErrorCode::kUnavailable) {
        return expectation_failed(line, "restart of site " + step.args[0] +
                                            " failed: " + status.to_string());
      }
      note(step, status.to_string());
    } else if (step.command == "scrub-interval") {
      auto ms = parse_number(line, step.args[0], "interval");
      if (!ms) return ms.status();
      scrub_options.cycle_interval = std::chrono::milliseconds(ms.value());
      group.set_scrub_options(scrub_options);
      note(step, "cycle interval " + step.args[0] + "ms");
    } else if (step.command == "scrub-throttle") {
      auto bytes = parse_number(line, step.args[0], "byte budget");
      if (!bytes) return bytes.status();
      auto ops = parse_number(line, step.args[1], "op budget");
      if (!ops) return ops.status();
      scrub_options.bytes_per_sec = bytes.value();
      scrub_options.ops_per_sec = ops.value();
      group.set_scrub_options(scrub_options);
      note(step, step.args[0] + " bytes/s, " + step.args[1] + " ops/s");
    } else if (step.command == "scrub-site") {
      auto site = site_of(line, step.args[0]);
      if (!site) return site.status();
      auto report = group.scrub_site(site.value());
      if (!report) {
        return expectation_failed(line, "scrub of site " + step.args[0] +
                                            " failed: " +
                                            report.status().to_string());
      }
      note(step, "scanned " + std::to_string(report.value().scanned) +
                     ", healed " +
                     std::to_string(report.value().stale_healed +
                                    report.value().corrupt_healed));
    } else if (step.command == "scrub-wait") {
      auto rounds = parse_number(line, step.args[0], "round bound");
      if (!rounds) return rounds.status();
      if (rounds.value() == 0) {
        return syntax_error(line, "scrub-wait needs at least one round");
      }
      auto used = group.scrub_until_converged(rounds.value());
      if (!used) {
        return expectation_failed(line, used.status().to_string());
      }
      note(step, "converged in " + std::to_string(used.value()) +
                     " round(s)");
    } else if (step.command == "expect-state") {
      auto site = site_of(line, step.args[0]);
      if (!site) return site.status();
      const char* actual =
          net::site_state_name(group.replica(site.value()).state());
      if (step.args[1] != actual) {
        return expectation_failed(line, "site " + step.args[0] + " is " +
                                            actual + ", expected " +
                                            step.args[1]);
      }
      note(step, actual);
    } else if (step.command == "expect-available") {
      const bool want = step.args[0] == "true";
      if (!want && step.args[0] != "false") {
        return syntax_error(line, "expect-available takes true or false");
      }
      const bool actual = group.group_available();
      if (actual != want) {
        return expectation_failed(
            line, std::string("group availability is ") +
                      (actual ? "true" : "false") + ", expected " +
                      step.args[0]);
      }
      note(step, actual ? "true" : "false");
    } else {
      return syntax_error(line, "unhandled command '" + step.command + "'");
    }
  }
  return outcome;
}

}  // namespace reldev::core
