// ConnectionHost's reply obligation, driven over real loopback sockets:
// every request line gets exactly one answer, in order, whether its
// Reply is sent inside the line's dispatch, later from the loop, never
// (the abandon answer), twice (the first wins), or is still pending when
// the host drains; and the idle sweep never evicts a connection that is
// owed an answer.
#include "service/connection.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "common/check.h"
#include "common/status.h"
#include "service/net_socket.h"
#include "service/protocol.h"

namespace adahealth {
namespace {

using common::StatusCode;
using service::ConnectionHost;
using service::ConnectionLimits;
using service::Reply;

/// A blocking client with a receive deadline, so a missing answer fails
/// the test instead of hanging it.
class Client {
 public:
  explicit Client(uint16_t port) : fd_(Connect(port)), reader_(fd_) {}
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void Send(std::string_view lines) {
    ASSERT_TRUE(service::SendAll(fd_, lines).ok());
  }
  /// The next line, or the status when there is none.
  std::string Read() {
    auto line = reader_.ReadLine();
    return line.ok() ? line.value() : line.status().ToString();
  }
  /// The status code of the next line, read as a protocol response.
  StatusCode ReadCode() {
    auto line = reader_.ReadLine();
    if (!line.ok()) return line.status().code();
    return service::ParseResponse(line.value()).status().code();
  }
  [[nodiscard]] bool ClosedByPeer() {
    return reader_.ReadLine().status().code() == StatusCode::kOutOfRange;
  }

 private:
  static service::FileDescriptor Connect(uint16_t port) {
    auto fd = service::ConnectLoopback(port);
    ADA_CHECK(fd.ok());
    ADA_CHECK(service::SetRecvTimeout(fd.value(), 5000.0).ok());
    return std::move(fd).value();
  }

  service::FileDescriptor fd_;
  service::LineReader reader_;
};

/// Waits (bounded) until `flag` reaches `want`.
void AwaitCount(const std::atomic<int>& flag, int want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (flag.load() < want && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(flag.load(), want);
}

TEST(ConnectionHostTest, AnswersSentInsideTheDispatchComeBackInOrder) {
  ConnectionHost host("test", ConnectionLimits{});
  ASSERT_TRUE(host.Start([](std::string line, Reply reply) {
                    reply.Send(std::move(line) + "\n");
                  })
                  .ok());
  Client client(host.port());
  client.Send("a\nb\n\nc\n");  // The blank keep-alive line gets none.
  EXPECT_EQ(client.Read(), "a");
  EXPECT_EQ(client.Read(), "b");
  EXPECT_EQ(client.Read(), "c");
  host.Stop(1000.0);
}

TEST(ConnectionHostTest, LateAnswerHoldsThePipelinedLinesBehindIt) {
  std::atomic<bool> slow_answered{false};
  std::atomic<int> served_early{0};
  ConnectionHost host("test", ConnectionLimits{});
  ASSERT_TRUE(host.Start([&](std::string line, Reply reply) {
                    if (line == "slow") {
                      host.loop().ScheduleAfter(100.0, [&, reply] {
                        slow_answered.store(true);
                        reply.Send("slow\n");
                      });
                      return;
                    }
                    if (!slow_answered.load()) served_early.fetch_add(1);
                    reply.Send(std::move(line) + "\n");
                  })
                  .ok());
  Client client(host.port());
  client.Send("slow\na\nb\nc\n");
  EXPECT_EQ(client.Read(), "slow");
  EXPECT_EQ(client.Read(), "a");
  EXPECT_EQ(client.Read(), "b");
  EXPECT_EQ(client.Read(), "c");
  EXPECT_EQ(served_early.load(), 0);
  host.Stop(1000.0);
}

TEST(ConnectionHostTest, DroppedReplyAnswersItsAbandonAnswer) {
  std::optional<Reply> handed;  // Loop thread until `handed_over`.
  std::atomic<int> handed_over{0};
  ConnectionHost host("test", ConnectionLimits{});
  ASSERT_TRUE(
      host.Start([&](std::string line, Reply reply) {
            if (line == "drop") return;  // Dropped inside the dispatch.
            if (line == "drop-later") {
              host.loop().ScheduleAfter(20.0, [reply] {});
            } else if (line == "custom") {
              reply.AbandonWith(service::ErrorResponse(
                  common::NotFoundError("custom abandon answer")));
            } else if (line == "hand-off") {
              handed = reply;  // Dropped by the test thread.
              handed_over.fetch_add(1);
            } else {
              reply.Send(std::move(line) + "\n");
            }
          })
          .ok());
  Client client(host.port());
  client.Send("drop\nping\n");
  EXPECT_EQ(client.ReadCode(), StatusCode::kUnavailable);
  EXPECT_EQ(client.Read(), "ping");
  client.Send("drop-later\nping\n");
  EXPECT_EQ(client.ReadCode(), StatusCode::kUnavailable);
  EXPECT_EQ(client.Read(), "ping");
  client.Send("custom\nping\n");
  EXPECT_EQ(client.ReadCode(), StatusCode::kNotFound);
  EXPECT_EQ(client.Read(), "ping");
  client.Send("hand-off\nping\n");
  AwaitCount(handed_over, 1);
  handed.reset();  // The last copy goes away off the loop thread.
  EXPECT_EQ(client.ReadCode(), StatusCode::kUnavailable);
  EXPECT_EQ(client.Read(), "ping");
  host.Stop(1000.0);
}

TEST(ConnectionHostTest, OnlyTheFirstSendTakesEffect) {
  ConnectionHost host("test", ConnectionLimits{});
  ASSERT_TRUE(host.Start([&](std::string line, Reply reply) {
                    if (line == "twice") {
                      reply.Send("first\n");
                      reply.Send("second\n");
                    } else if (line == "later-twice") {
                      host.loop().ScheduleAfter(20.0, [reply] {
                        reply.Send("later-first\n");
                        reply.Send("later-second\n");
                      });
                    } else {
                      reply.Send(std::move(line) + "\n");
                    }
                  })
                  .ok());
  Client client(host.port());
  client.Send("twice\nx\nlater-twice\ny\n");
  EXPECT_EQ(client.Read(), "first");
  EXPECT_EQ(client.Read(), "x");
  EXPECT_EQ(client.Read(), "later-first");
  EXPECT_EQ(client.Read(), "y");
  host.Stop(1000.0);
}

TEST(ConnectionHostTest, DrainAnswersEveryPendingReply) {
  std::vector<Reply> held;      // Loop thread only, until the loop exits.
  std::optional<Reply> dropped;  // Likewise.
  std::atomic<int> holding{0};
  ConnectionHost host("test", ConnectionLimits{});
  ASSERT_TRUE(
      host.Start([&](std::string line, Reply reply) {
            if (line == "hold-custom") {
              reply.AbandonWith(service::ErrorResponse(
                  common::DeadlineExceededError("custom drain answer")));
            }
            if (line == "hold-drop") {
              dropped = std::move(reply);
            } else {
              held.push_back(std::move(reply));
            }
            holding.fetch_add(1);
          })
          .ok());
  std::vector<std::unique_ptr<Client>> clients;
  for (const char* line :
       {"hold\nbehind\n", "hold\n", "hold-custom\n", "hold-drop\n"}) {
    clients.push_back(std::make_unique<Client>(host.port()));
    clients.back()->Send(line);
  }
  AwaitCount(holding, 4);
  // The drain starts while the dropped reply's abandon answer is still
  // a posted task: that connection waits for it instead of closing.
  const auto drain_start = std::chrono::steady_clock::now();
  host.loop().Post([&] {
    dropped.reset();
    host.BeginDrain(60000.0);
  });
  host.Wait();
  // Each connection closed once answered, not at the failsafe.
  EXPECT_LT(std::chrono::steady_clock::now() - drain_start,
            std::chrono::seconds(30));
  EXPECT_EQ(clients[0]->ReadCode(), StatusCode::kUnavailable);
  EXPECT_EQ(clients[1]->ReadCode(), StatusCode::kUnavailable);
  EXPECT_EQ(clients[2]->ReadCode(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(clients[3]->ReadCode(), StatusCode::kUnavailable);
  // One answer each, and no line behind a pending one is dispatched.
  for (auto& client : clients) EXPECT_TRUE(client->ClosedByPeer());
  EXPECT_EQ(holding.load(), 4);
}

TEST(ConnectionHostTest, IdleSweepSparesAConnectionOwedAReply) {
  std::optional<Reply> held;  // Loop thread only.
  std::atomic<int> holding{0};
  ConnectionLimits limits;
  limits.idle_timeout_millis = 100.0;
  ConnectionHost host("test", limits);
  ASSERT_TRUE(host.Start([&](std::string line, Reply reply) {
                    if (line == "hold") {
                      held = std::move(reply);
                      holding.fetch_add(1);
                      return;
                    }
                    reply.Send(std::move(line) + "\n");
                  })
                  .ok());
  Client idle(host.port());
  Client waiter(host.port());
  waiter.Send("hold\n");
  AwaitCount(holding, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_TRUE(idle.ClosedByPeer());
  EXPECT_GE(host.counters().idle_disconnects.load(), 1);
  host.loop().Post([&] { held->Send("done\n"); });
  EXPECT_EQ(waiter.Read(), "done");
  waiter.Send("ping\n");
  EXPECT_EQ(waiter.Read(), "ping");
  host.Stop(1000.0);
}

}  // namespace
}  // namespace adahealth
