// Unit tests for pvr::runtime — superstep exchanges, delivery order,
// payload and byte conservation, overlapped pricing.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <numeric>

#include "machine/partition.hpp"
#include "runtime/runtime.hpp"

namespace pvr::runtime {
namespace {

machine::Partition make_partition(std::int64_t ranks) {
  return machine::Partition(machine::MachineConfig{}, ranks);
}

Payload make_payload(const std::string& s) {
  Payload p(s.size());
  std::memcpy(p.data(), s.data(), s.size());
  return p;
}

std::string payload_str(const Payload& p) {
  return std::string(reinterpret_cast<const char*>(p.data()), p.size());
}

TEST(RuntimeTest, DeliversPayloadsToDestinations) {
  const auto part = make_partition(8);
  Runtime rt(part, Mode::kExecute);
  std::vector<Message> msgs;
  for (std::int64_t rank = 0; rank < 8; ++rank) {
    Payload p = make_payload("from " + std::to_string(rank));
    const auto bytes = std::int64_t(p.size());
    msgs.push_back(Message{rank, (rank + 1) % 8, 0, bytes, std::move(p)});
  }
  std::map<std::int64_t, std::vector<std::string>> received;
  rt.exchange_messages(
      std::move(msgs), [&](std::int64_t rank, std::span<const Message> inbox) {
        for (const Message& m : inbox) {
          received[rank].push_back(payload_str(m.payload));
        }
      });
  ASSERT_EQ(received.size(), 8u);
  EXPECT_EQ(received[0].at(0), "from 7");
  EXPECT_EQ(received[5].at(0), "from 4");
}

TEST(RuntimeTest, DeliveryOrderIsDeterministic) {
  const auto part = make_partition(16);
  Runtime rt(part, Mode::kExecute);
  // Submitted in descending source order; delivered sorted by source.
  std::vector<Message> msgs;
  for (std::int64_t rank = 15; rank >= 0; --rank) {
    if (rank != 3) msgs.push_back(Message{rank, 3, int(rank), 0, {}});
  }
  std::vector<std::int64_t> sources;
  rt.exchange_messages(
      std::move(msgs), [&](std::int64_t rank, std::span<const Message> inbox) {
        EXPECT_EQ(rank, 3);
        for (const Message& m : inbox) sources.push_back(m.src_rank);
      });
  // Sorted by src rank.
  EXPECT_TRUE(std::is_sorted(sources.begin(), sources.end()));
  EXPECT_EQ(sources.size(), 15u);
}

TEST(RuntimeTest, ByteConservation) {
  const auto part = make_partition(32);
  Runtime rt(part, Mode::kModel);
  std::vector<Message> msgs;
  std::int64_t sent = 0, received = 0;
  for (std::int64_t rank = 0; rank < 32; ++rank) {
    const std::int64_t bytes = 100 + rank;
    msgs.push_back(Message{rank, (rank * 7 + 3) % 32, 0, bytes, {}});
    sent += bytes;
  }
  const auto cost = rt.exchange_messages(
      std::move(msgs), [&](std::int64_t, std::span<const Message> inbox) {
        for (const Message& m : inbox) received += m.bytes;
      });
  EXPECT_EQ(sent, received);
  EXPECT_EQ(cost.total_bytes, sent);
}

TEST(RuntimeTest, ModelModeAllowsSizedMessages) {
  const auto part = make_partition(4);
  Runtime rt(part, Mode::kModel);
  std::vector<Message> msgs;
  for (std::int64_t rank = 0; rank < 4; ++rank) {
    msgs.push_back(Message{rank, (rank + 1) % 4, 0, 1 << 20, {}});
  }
  const auto cost = rt.exchange_messages(std::move(msgs));
  EXPECT_EQ(cost.messages, 4);
  EXPECT_EQ(cost.total_bytes, 4 << 20);
  EXPECT_GT(cost.seconds, 0.0);
}

TEST(RuntimeTest, ExchangeMessagesPricesExplicitList) {
  const auto part = make_partition(16);
  Runtime rt(part, Mode::kModel);
  std::vector<Message> msgs;
  msgs.push_back(Message{0, 15, 0, 4096, {}});
  msgs.push_back(Message{1, 14, 0, 4096, {}});
  const auto cost = rt.exchange_messages(std::move(msgs));
  EXPECT_EQ(cost.messages, 2);
  EXPECT_EQ(cost.total_bytes, 8192);
}

TEST(RuntimeTest, OverlappedExchangeSkipsOnlyTheBarrierSkew) {
  const auto part = make_partition(16);
  std::vector<Message> msgs;
  msgs.push_back(Message{0, 15, 0, 4096, {}});
  msgs.push_back(Message{1, 14, 0, 4096, {}});
  Runtime barrier_rt(part, Mode::kModel);
  const auto barrier = barrier_rt.exchange_messages(msgs);
  Runtime overlap_rt(part, Mode::kModel);
  const auto overlapped = overlap_rt.exchange_messages_overlapped(msgs);
  // Same routing and serialization, no barrier-close skew of its own.
  EXPECT_EQ(overlapped.messages, barrier.messages);
  EXPECT_EQ(overlapped.total_bytes, barrier.total_bytes);
  EXPECT_DOUBLE_EQ(overlapped.link_seconds, barrier.link_seconds);
  EXPECT_DOUBLE_EQ(overlapped.endpoint_seconds, barrier.endpoint_seconds);
  EXPECT_DOUBLE_EQ(overlapped.skew_seconds, 0.0);
  EXPECT_GT(barrier.skew_seconds, 0.0);
  EXPECT_DOUBLE_EQ(overlapped.seconds, barrier.seconds - barrier.skew_seconds);
}

}  // namespace
}  // namespace pvr::runtime
