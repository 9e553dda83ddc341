#include "reldev/core/site.hpp"

#include "reldev/core/naive_replica.hpp"
#include "reldev/core/voting_replica.hpp"
#include "reldev/storage/mem_block_store.hpp"

namespace reldev::core {

const char* scheme_kind_name(SchemeKind kind) noexcept {
  switch (kind) {
    case SchemeKind::kVoting:
      return "voting";
    case SchemeKind::kAvailableCopy:
      return "available-copy";
    case SchemeKind::kNaiveAvailableCopy:
      return "naive-available-copy";
  }
  return "unknown";
}

Result<SchemeKind> scheme_kind_from_name(std::string_view name) {
  for (const auto kind : {SchemeKind::kVoting, SchemeKind::kAvailableCopy,
                          SchemeKind::kNaiveAvailableCopy}) {
    if (name == scheme_kind_name(kind)) return kind;
  }
  return errors::invalid_argument("unknown scheme '" + std::string(name) +
                                  "'");
}

Site::Site(SiteId id, GroupConfig config, net::Transport& peers,
           SiteOptions options)
    : id_(id),
      config_(std::move(config)),
      peers_(peers),
      options_(std::move(options)) {}

Site::~Site() = default;

Result<std::unique_ptr<Site>> Site::open(SiteId id, GroupConfig config,
                                         net::Transport& peers,
                                         SiteOptions options) {
  auto site = std::unique_ptr<Site>(
      new Site(id, std::move(config), peers, std::move(options)));
  if (Status status = site->open_store(); !status.is_ok()) return status;
  if (Status status = site->serve(); !status.is_ok()) return status;
  // One attempt; a comatose site stays up and retries when asked.
  if (site->reopened_) site->replica_->recover().ignore_error();
  return site;
}

Status Site::open_store() {
  const std::string& path = options_.store_path;
  if (path.empty()) {
    store_ = std::make_unique<storage::MemBlockStore>(config_.block_count,
                                                      config_.block_size);
    return Status::ok();
  }
  const Status status = reopen_store();
  reopened_ = status.is_ok();
  // Only a missing file means "no store yet": creating over anything else
  // would truncate a store that may hold acknowledged writes.
  if (status.code() != ErrorCode::kNotFound) return status;
  if (options_.journal) {
    return adopt(storage::JournaledBlockStore::create(
        path, config_.block_count, config_.block_size,
        options_.journal_options));
  }
  return adopt(storage::FileBlockStore::create(path, config_.block_count,
                                               config_.block_size));
}

Status Site::reopen_store() {
  // The stores log what their own recovery (torn-record scrub, journal
  // replay) repaired.
  if (options_.journal) {
    return adopt(storage::JournaledBlockStore::open(options_.store_path,
                                                    options_.journal_options));
  }
  return adopt(storage::FileBlockStore::open(options_.store_path));
}

template <typename Store>
Status Site::adopt(Result<std::unique_ptr<Store>> opened) {
  if (!opened) return opened.status();
  if (opened.value()->block_count() != config_.block_count ||
      opened.value()->block_size() != config_.block_size) {
    return errors::invalid_argument("store geometry mismatch: " +
                                    options_.store_path);
  }
  if (store_ == nullptr) {
    store_ = std::make_unique<storage::CrashPointBlockStore>(
        std::move(opened).value());
  } else {
    crash_points().adopt(std::move(opened).value());
  }
  return Status::ok();
}

Status Site::serve() {
  scrubber_.reset();  // it holds the replica about to be replaced
  switch (options_.scheme) {
    case SchemeKind::kVoting:
      replica_ =
          std::make_unique<VotingReplica>(id_, config_, *store_, peers_);
      break;
    case SchemeKind::kAvailableCopy:
      replica_ = std::make_unique<AvailableCopyReplica>(
          id_, config_, *store_, peers_, options_.policy);
      break;
    case SchemeKind::kNaiveAvailableCopy:
      replica_ = std::make_unique<NaiveAvailableCopyReplica>(id_, config_,
                                                             *store_, peers_);
      break;
  }
  // A reopened replica rebuilt its volatile state (e.g. the was-available
  // set) from the store, but nothing vouches for its blocks yet: it takes
  // traffic only to refuse it until recovery.
  if (reopened_) replica_->crash();
  // Over the reopened store the daemon resumes from the persisted cursor,
  // so mid-cycle progress survives a kill.
  scrubber_ = std::make_unique<ScrubDaemon>(*replica_, options_.scrub);
  if (!options_.listen_port) return Status::ok();
  auto server = net::tcp::TcpServer::start(
      port_ != 0 ? port_ : *options_.listen_port, this);
  if (!server) return server.status();
  server_ = std::move(server).value();
  port_ = server_->port();
  return Status::ok();
}

storage::CrashPointBlockStore& Site::crash_points() {
  RELDEV_EXPECTS(!options_.store_path.empty());
  return static_cast<storage::CrashPointBlockStore&>(*store_);
}

void Site::set_scrub_options(const ScrubOptions& options) {
  options_.scrub = options;
  scrubber_->set_options(options);
}

void Site::kill() {
  replica_->crash();
  server_.reset();
  scrubber_->stop();
  // Closing the descriptor without a flush leaves exactly the bytes the
  // (possibly torn) pwrites produced — the on-disk state a dying process
  // leaves behind. In journal mode this also vaporises the in-memory
  // pending batch and write-back table, as a process death would.
  crash_points().drop_inner();
}

Status Site::restart() {
  RELDEV_EXPECTS(!crash_points().has_inner());  // kill first
  if (Status status = reopen_store(); !status.is_ok()) return status;
  reopened_ = true;
  if (Status status = serve(); !status.is_ok()) return status;
  return replica_->recover();
}

net::Message Site::handle(const net::Message& request) {
  return replica_->handle(request);
}

void Site::handle_oneway(const net::Message& message) {
  replica_->handle_oneway(message);
}

}  // namespace reldev::core
