// Site: one server process of the replicated device (Figures 1 and 2): its
// stable store, the scheme's replica over it, the endpoint that takes
// traffic, and the scrub daemon. The daemon, ReplicaGroup, the TCP tests
// and the benches all build sites here, so they agree on two rules:
//   * A store is created only when its file does not exist. Any other open
//     failure, or another geometry, fails the site: a store that cannot be
//     read is never truncated and replaced by an empty one.
//   * A reopened store belongs to a process that died. Its replica starts
//     failed, refusing traffic until the scheme's recovery protocol has
//     vouched for the local copy, and then runs one recover().
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "reldev/core/available_copy_replica.hpp"
#include "reldev/core/scrub_daemon.hpp"
#include "reldev/net/tcp/tcp_server.hpp"
#include "reldev/storage/crash_point_store.hpp"

namespace reldev::core {

enum class SchemeKind { kVoting, kAvailableCopy, kNaiveAvailableCopy };

const char* scheme_kind_name(SchemeKind kind) noexcept;

/// The inverse of scheme_kind_name; kInvalidArgument for any other name.
[[nodiscard]] Result<SchemeKind> scheme_kind_from_name(std::string_view name);

struct SiteOptions {
  SchemeKind scheme = SchemeKind::kAvailableCopy;
  /// Available copy's W propagation. The naive scheme always runs kFixed;
  /// available copy with kFixed is refused (kInvalidArgument).
  WasAvailablePolicy policy = WasAvailablePolicy::kEagerBroadcast;
  /// Empty = an in-memory store (no kill/restart). Otherwise a
  /// FileBlockStore behind a crash-point injector, a pass-through until
  /// armed; with `journal`, a JournaledBlockStore (`<store_path>.wal`).
  std::string store_path;
  bool journal = false;
  storage::JournalOptions journal_options;
  /// Serve on the site's own TcpServer at this port (0 = ephemeral; a
  /// restart rebinds the port first bound). Unset: the caller binds the
  /// Site, as a MessageHandler, to an in-process transport.
  std::optional<std::uint16_t> listen_port;
  ScrubOptions scrub;
};

class Site final : public net::MessageHandler {
 public:
  /// Open or create the store, then build the replica over `peers` (which
  /// must outlive the site), the scrub daemon (not started) and the
  /// endpoint.
  [[nodiscard]] static Result<std::unique_ptr<Site>> open(
      SiteId id, GroupConfig config, net::Transport& peers,
      SiteOptions options);

  ~Site() override;
  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  [[nodiscard]] SiteId id() const noexcept { return id_; }
  /// Whether open() found an existing store (and so ran recovery).
  [[nodiscard]] bool reopened() const noexcept { return reopened_; }
  [[nodiscard]] ReplicaBase& replica() noexcept { return *replica_; }
  [[nodiscard]] storage::BlockStore& store() noexcept { return *store_; }
  /// The injector in front of a persistent store.
  [[nodiscard]] storage::CrashPointBlockStore& crash_points();
  [[nodiscard]] ScrubDaemon& scrubber() noexcept { return *scrubber_; }
  /// Apply scrub options to the daemon now and to every rebuild.
  void set_scrub_options(const ScrubOptions& options);
  /// Null without a listen port, or while killed.
  [[nodiscard]] net::tcp::TcpServer* server() noexcept { return server_.get(); }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Fail-stop (persistent sites only): the replica fails, the endpoint
  /// stops, and the store's file handle is dropped with no flush.
  void kill();
  /// Bring a killed site back as a new process would: reopen the file
  /// through the store's recovery path, rebuild replica and scrub daemon,
  /// serve, and return one recover()'s status (kUnavailable = comatose).
  /// A failed reopen returns its error and leaves the site killed.
  [[nodiscard]] Status restart();

  // The endpoint forwards to the current replica, so a transport binding
  // survives restart().
  net::Message handle(const net::Message& request) override;
  void handle_oneway(const net::Message& message) override;

 private:
  Site(SiteId id, GroupConfig config, net::Transport& peers,
       SiteOptions options);

  [[nodiscard]] Status open_store();
  [[nodiscard]] Status reopen_store();
  /// Check the geometry, then put the store behind the injector.
  template <typename Store>
  [[nodiscard]] Status adopt(Result<std::unique_ptr<Store>> opened);
  /// Build replica and scrub daemon, then start the endpoint.
  [[nodiscard]] Status serve();

  SiteId id_;
  GroupConfig config_;
  net::Transport& peers_;
  SiteOptions options_;
  bool reopened_ = false;
  std::uint16_t port_ = 0;
  // Torn down in reverse: server, scrubber, replica, then its store.
  std::unique_ptr<storage::BlockStore> store_;
  std::unique_ptr<ReplicaBase> replica_;
  std::unique_ptr<ScrubDaemon> scrubber_;
  std::unique_ptr<net::tcp::TcpServer> server_;
};

}  // namespace reldev::core
