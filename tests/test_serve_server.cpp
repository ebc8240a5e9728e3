// End-to-end daemon tests over a real Unix socket: queries against the
// served snapshot, the malformed-request contract (ERR reply on a live
// session — never a dropped connection or a daemon exit), ingest-driven
// refits observable through EPOCH, concurrent clients during a refit
// storm, the SHUTDOWN drain, and BindError on an untakeable address.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "generator/dcsbm.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace hsbp::serve {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

graph::Graph tiny_graph(std::uint64_t seed = 11) {
  generator::DcsbmParams params;
  params.num_vertices = 60;
  params.num_communities = 4;
  params.num_edges = 420;
  params.ratio_within_between = 5.0;
  params.seed = seed;
  return generator::generate_dcsbm(params).graph;
}

std::string unique_socket_path(const char* tag) {
  // Keep it short: sun_path is ~108 bytes and TempDir may be deep.
  return "/tmp/hsbp_t_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

sbp::SbpConfig fast_config() {
  sbp::SbpConfig config;
  config.seed = 5;
  config.num_threads = 2;
  return config;
}

/// Polls EPOCH until the daemon reports at least `target`.
bool await_epoch(Client& client, const std::string& graph,
                 std::uint64_t target, std::chrono::seconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto reply = client.request("EPOCH " + graph);
    if (!reply.has_value()) return false;
    if (is_ok(*reply) &&
        std::stoull(reply->substr(3)) >= target) {
      return true;
    }
    std::this_thread::sleep_for(10ms);
  }
  return false;
}

TEST(ServeServer, AnswersTheQueryVocabularyOverAUnixSocket) {
  const std::string socket = unique_socket_path("vocab");
  ServeOptions options;
  options.socket_path = socket;
  options.refit.base = fast_config();
  Server server(options);
  server.add_graph("g", tiny_graph());
  server.start();

  Client client = Client::connect_unix(socket);
  EXPECT_EQ(client.request("PING"), "OK pong");
  EXPECT_EQ(client.request("LIST"), "OK 1 g");

  const auto info = client.request("INFO g");
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(is_ok(*info));
  EXPECT_NE(info->find("vertices=60"), std::string::npos);
  EXPECT_NE(info->find("epoch=1"), std::string::npos);

  const auto member = client.request("MEMBER g 0");
  ASSERT_TRUE(member.has_value());
  EXPECT_TRUE(is_ok(*member));
  const int block = std::stoi(member->substr(3));
  EXPECT_GE(block, 0);

  const auto community =
      client.request("COMMUNITY g " + std::to_string(block));
  ASSERT_TRUE(community.has_value());
  EXPECT_TRUE(is_ok(*community));
  // The member we just looked up must appear in its own community.
  EXPECT_NE((" " + community->substr(3) + " ").find(" 0 "),
            std::string::npos);

  for (const char* verb : {"MODULARITY g", "MDL g", "EPOCH g", "STATS"}) {
    const auto reply = client.request(verb);
    ASSERT_TRUE(reply.has_value()) << verb;
    EXPECT_TRUE(is_ok(*reply)) << verb << " -> " << *reply;
  }
  server.stop();
  EXPECT_FALSE(fs::exists(socket));  // drained daemon unlinks its socket
}

TEST(ServeServer, MalformedRequestsGetErrRepliesOnALiveSession) {
  const std::string socket = unique_socket_path("err");
  ServeOptions options;
  options.socket_path = socket;
  options.refit.base = fast_config();
  Server server(options);
  server.add_graph("g", tiny_graph());
  server.start();

  Client client = Client::connect_unix(socket);
  // Each malformed request is an ERR reply — and the SAME connection
  // keeps answering afterwards, proving nothing died server-side.
  for (const char* bad :
       {"FROBNICATE", "MEMBER g notanumber", "MEMBER g", "INGEST g 2 0 1",
        "MEMBER g 99999", "COMMUNITY g 99999", "INFO nosuchgraph", ""}) {
    const auto reply = client.request(bad);
    ASSERT_TRUE(reply.has_value()) << "connection died on: " << bad;
    EXPECT_FALSE(is_ok(*reply)) << bad << " -> " << *reply;
    EXPECT_EQ(reply->substr(0, 3), "ERR") << bad;
  }
  EXPECT_EQ(client.request("PING"), "OK pong");

  const auto stats = server.stats();
  EXPECT_GE(stats.errors, 8u);
  server.stop();
}

TEST(ServeServer, IngestAdvancesTheEpochAndGrowsTheGraph) {
  const std::string socket = unique_socket_path("ingest");
  ServeOptions options;
  options.socket_path = socket;
  options.refit.base = fast_config();
  Server server(options);
  server.add_graph("g", tiny_graph());
  server.start();

  Client client = Client::connect_unix(socket);
  // Vertex 60 is new: the refit must grow the vertex set and label it.
  const auto ack = client.request("INGEST g 3 0 60 60 1 2 3");
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(is_ok(*ack)) << *ack;
  EXPECT_NE(ack->find("queued=3"), std::string::npos);

  ASSERT_TRUE(await_epoch(client, "g", 2, 60s));
  const auto info = client.request("INFO g");
  ASSERT_TRUE(info.has_value());
  EXPECT_NE(info->find("vertices=61"), std::string::npos) << *info;

  const auto member = client.request("MEMBER g 60");
  ASSERT_TRUE(member.has_value());
  EXPECT_TRUE(is_ok(*member)) << *member;
  server.stop();
  EXPECT_GE(server.stats().refits, 1u);
}

// The acceptance scenario: concurrent clients keep querying WHILE a
// refit runs; every reply is a valid OK and no snapshot is torn. This
// is the test the TSan stage leans on.
TEST(ServeServer, ConcurrentClientsDuringARefitStorm) {
  const std::string socket = unique_socket_path("storm");
  ServeOptions options;
  options.socket_path = socket;
  options.refit.base = fast_config();
  Server server(options);
  server.add_graph("g", tiny_graph());
  server.start();

  std::atomic<bool> running{true};
  std::atomic<std::uint64_t> replies{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Client client = Client::connect_unix(socket);
      std::uint64_t i = 0;
      while (running.load(std::memory_order_relaxed)) {
        const char* verbs[3] = {"MEMBER g ", "MODULARITY g", "EPOCH g"};
        std::string payload = verbs[i % 3];
        if (i % 3 == 0) payload += std::to_string((i + static_cast<std::uint64_t>(c)) % 60);
        const auto reply = client.request(payload);
        if (!reply.has_value() || !is_ok(*reply)) {
          failures.fetch_add(1);
          break;
        }
        replies.fetch_add(1);
        ++i;
      }
    });
  }

  Client control = Client::connect_unix(socket);
  for (int batch = 0; batch < 2; ++batch) {
    std::vector<std::pair<std::int32_t, std::int32_t>> edges;
    for (std::int32_t e = 0; e < 10; ++e) {
      edges.emplace_back((batch * 7 + e) % 60, (batch * 11 + 3 * e) % 60);
    }
    const auto ack = control.request(format_ingest("g", edges));
    ASSERT_TRUE(ack.has_value());
    ASSERT_TRUE(is_ok(*ack)) << *ack;
  }
  EXPECT_TRUE(await_epoch(control, "g", 2, 60s));

  running.store(false);
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(replies.load(), 0u);
  server.stop();
}

TEST(ServeServer, ShutdownVerbAcknowledgesThenDrains) {
  const std::string socket = unique_socket_path("bye");
  ServeOptions options;
  options.socket_path = socket;
  options.refit.base = fast_config();
  auto server = std::make_unique<Server>(options);
  server->add_graph("g", tiny_graph());
  server->start();

  std::thread waiter([&] { server->run(); });
  Client client = Client::connect_unix(socket);
  EXPECT_EQ(client.request("SHUTDOWN"), "OK draining");
  waiter.join();  // run() returns only after the drain completed
  EXPECT_FALSE(fs::exists(socket));
  // The drained daemon is gone: a new request cannot be served.
  EXPECT_FALSE(client.request("PING").has_value());
  server.reset();
}

TEST(ServeServer, BindFailureThrowsBindError) {
  ServeOptions options;
  options.socket_path = "/nonexistent-hsbp-dir/daemon.sock";
  options.refit.base = fast_config();
  Server server(options);
  server.add_graph("g", tiny_graph());
  EXPECT_THROW(server.start(), BindError);
}

TEST(ServeServer, OccupiedSocketPathThrowsBindError) {
  const std::string socket = unique_socket_path("dup");
  ServeOptions options;
  options.socket_path = socket;
  options.refit.base = fast_config();
  Server first(options);
  first.add_graph("g", tiny_graph());
  first.start();

  Server second(options);
  second.add_graph("g", tiny_graph());
  EXPECT_THROW(second.start(), BindError);
  // The loser must not have unlinked the winner's socket.
  Client client = Client::connect_unix(socket);
  EXPECT_EQ(client.request("PING"), "OK pong");
  first.stop();
}

TEST(ServeServer, EphemeralTcpPortIsReportedAndServes) {
  ServeOptions options;
  options.tcp_port = 0;
  options.refit.base = fast_config();
  Server server(options);
  server.add_graph("g", tiny_graph());
  server.start();
  ASSERT_GT(server.port(), 0);

  Client client = Client::connect_tcp(server.port());
  EXPECT_EQ(client.request("PING"), "OK pong");
  const auto member = client.request("MEMBER g 5");
  ASSERT_TRUE(member.has_value());
  EXPECT_TRUE(is_ok(*member));
  server.stop();
}

TEST(ServeServer, SequentialTcpRequestsDoNotStallOnNagle) {
  // A frame is two writes (length prefix, payload). Without TCP_NODELAY
  // on both ends, each request and each reply waits for a delayed ACK:
  // ~40 ms per round trip, so 50 PINGs took about 2 s.
  ServeOptions options;
  options.tcp_port = 0;
  options.refit.base = fast_config();
  Server server(options);
  server.add_graph("g", tiny_graph());
  server.start();

  Client client = Client::connect_tcp(server.port());
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(client.request("PING"), "OK pong");
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  server.stop();
  EXPECT_LT(elapsed, 1s);
}

TEST(ServeServer, RejectsEmptyGraphsAndLateRegistration) {
  ServeOptions options;
  options.tcp_port = 0;
  options.refit.base = fast_config();
  Server server(options);
  EXPECT_THROW(server.add_graph("empty", graph::Graph()),
               std::invalid_argument);
  server.add_graph("g", tiny_graph());
  server.start();
  EXPECT_THROW(server.add_graph("late", tiny_graph()),
               std::invalid_argument);
  server.stop();
}

}  // namespace
}  // namespace hsbp::serve
