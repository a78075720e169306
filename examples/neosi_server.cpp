// neosi_server: serves a database over the wire protocol, then exercises it
// with an in-process client — the smallest end-to-end tour of the network
// session front-end.
//
//   $ ./example_neosi_server [data-dir] [port]
//
// With a port argument the server stays up until you press Enter, so you
// can point external clients (or a second copy of this binary's client
// half) at it. Without one it binds an ephemeral port, runs its own client
// traffic, prints the admission counters, and exits.
//
// docs/OPERATIONS.md § "Network front-end" covers every knob shown here.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "graph/graph_database.h"
#include "server/client.h"
#include "server/server.h"

using namespace neosi;

int main(int argc, char** argv) {
  const std::string dir = argc > 1
                              ? argv[1]
                              : (std::filesystem::temp_directory_path() /
                                 "neosi_server_demo")
                                    .string();
  const uint16_t port =
      argc > 2 ? static_cast<uint16_t>(std::atoi(argv[2])) : 0;
  std::filesystem::remove_all(dir);

  // 1. Open the database this server fronts. The directory lockfile means
  //    a second server on the same directory fails fast with Busy instead
  //    of corrupting this one.
  DatabaseOptions db_options;
  db_options.in_memory = false;
  db_options.path = dir;
  auto db_or = GraphDatabase::Open(db_options);
  if (!db_or.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 db_or.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(*db_or);

  // 2. Start the front-end: two threads share one epoll set, each running
  //    a request to completion — no thread-per-connection.
  ServerOptions server_options;
  server_options.port = port;
  server_options.workers = 2;
  server_options.max_sessions = 64;
  server_options.idle_timeout_ms = 60'000;
  auto server_or = Server::Start(db.get(), server_options);
  if (!server_or.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server_or.status().ToString().c_str());
    return 1;
  }
  auto server = std::move(*server_or);
  std::printf("serving %s on 127.0.0.1:%u\n", dir.c_str(), server->port());

  if (port != 0) {
    std::printf("press Enter to stop\n");
    (void)std::getchar();
  } else {
    // 3. Drive it like a remote application would: connect, retry-loop on
    //    retryable statuses, read back through the label index.
    Client client;
    if (!client.Connect("127.0.0.1", server->port()).ok()) {
      std::fprintf(stderr, "client connect failed\n");
      return 1;
    }
    for (int attempt = 0; attempt < 5; ++attempt) {
      auto begin = client.Begin(IsolationLevel::kSnapshotIsolation);
      if (!begin.ok() && begin.status().IsRetryable()) continue;
      auto alice = client.CreateNode({"Person"},
                                     {{"name", PropertyValue("alice")}});
      auto bob =
          client.CreateNode({"Person"}, {{"name", PropertyValue("bob")}});
      if (alice.ok() && bob.ok()) {
        (void)client.CreateRelationship(*alice, *bob, "KNOWS");
      }
      auto committed = client.Commit();
      if (committed.ok()) {
        std::printf("committed at ts=%llu\n",
                    static_cast<unsigned long long>(*committed));
        break;
      }
      if (!committed.status().IsRetryable()) {
        std::fprintf(stderr, "commit failed: %s\n",
                     committed.status().ToString().c_str());
        return 1;
      }
    }
    if (client.Begin(IsolationLevel::kSnapshotIsolation, true).ok()) {
      auto people = client.GetNodesByLabel("Person");
      std::printf("Person nodes over the wire: %zu\n",
                  people.ok() ? people->size() : 0);
      (void)client.Rollback();
    }

    const DatabaseStats stats = db->Stats();
    std::printf("admission: admitted=%llu delayed=%llu shed_backlog=%llu "
                "shed_sessions=%llu\n",
                static_cast<unsigned long long>(stats.admission_admitted),
                static_cast<unsigned long long>(stats.admission_delayed),
                static_cast<unsigned long long>(stats.admission_shed_backlog),
                static_cast<unsigned long long>(
                    stats.admission_shed_sessions));
  }

  server->Stop();  // Before the database: sessions abort their txns here.
  std::printf("server stopped cleanly\n");
  return 0;
}
