#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/address.hpp"
#include "net/packet.hpp"
#include "net/prefix_trie.hpp"

namespace miro::net {
namespace {

TEST(Ipv4Address, ParseAndFormatRoundTrip) {
  auto address = Ipv4Address::parse("128.112.0.1");
  ASSERT_TRUE(address);
  EXPECT_EQ(address->to_string(), "128.112.0.1");
  EXPECT_EQ(address->value(), 0x80700001u);
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::parse("1.2.3"));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4.5"));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.256"));
  EXPECT_FALSE(Ipv4Address::parse("a.b.c.d"));
  EXPECT_FALSE(Ipv4Address::parse(""));
}

TEST(Ipv4Address, ConstructorFromOctets) {
  Ipv4Address address(12, 34, 56, 78);
  EXPECT_EQ(address.to_string(), "12.34.56.78");
}

TEST(Prefix, CanonicalizesHostBits) {
  Prefix prefix(Ipv4Address(128, 112, 5, 1), 16);
  EXPECT_EQ(prefix.to_string(), "128.112.0.0/16");
}

TEST(Prefix, ContainsMatchesMaskedBits) {
  auto prefix = Prefix::parse("128.112.0.0/16");
  ASSERT_TRUE(prefix);
  EXPECT_TRUE(prefix->contains(*Ipv4Address::parse("128.112.255.255")));
  EXPECT_FALSE(prefix->contains(*Ipv4Address::parse("128.113.0.0")));
}

TEST(Prefix, CoversMoreSpecific) {
  auto wide = Prefix::parse("12.34.0.0/16");
  auto narrow = Prefix::parse("12.34.56.0/24");
  ASSERT_TRUE(wide && narrow);
  EXPECT_TRUE(wide->covers(*narrow));
  EXPECT_FALSE(narrow->covers(*wide));
}

TEST(Prefix, ZeroLengthMatchesEverything) {
  Prefix everything(Ipv4Address(0), 0);
  EXPECT_TRUE(everything.contains(Ipv4Address(0xffffffffu)));
}

TEST(Prefix, ParseRejectsBadLength) {
  EXPECT_FALSE(Prefix::parse("1.2.3.4/33"));
  EXPECT_FALSE(Prefix::parse("1.2.3.4"));
}

TEST(PrefixTrie, LongestPrefixMatchPrefersMoreSpecific) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("12.34.0.0/16"), 1);
  trie.insert(*Prefix::parse("12.34.56.0/24"), 2);
  auto coarse = trie.lookup(*Ipv4Address::parse("12.34.1.1"));
  auto fine = trie.lookup(*Ipv4Address::parse("12.34.56.78"));
  ASSERT_TRUE(coarse && fine);
  EXPECT_EQ(*coarse->value, 1);
  EXPECT_EQ(coarse->prefix_length, 16);
  EXPECT_EQ(*fine->value, 2);
  EXPECT_EQ(fine->prefix_length, 24);
}

TEST(PrefixTrie, MissReturnsNullopt) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 1);
  EXPECT_FALSE(trie.lookup(*Ipv4Address::parse("11.0.0.1")));
}

TEST(PrefixTrie, DefaultRouteCatchesEverything) {
  PrefixTrie<int> trie;
  trie.insert(Prefix(Ipv4Address(0), 0), 99);
  auto match = trie.lookup(Ipv4Address(0xdeadbeefu));
  ASSERT_TRUE(match);
  EXPECT_EQ(*match->value, 99);
  EXPECT_EQ(match->prefix_length, 0);
}

TEST(PrefixTrie, EraseAndExactFind) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 1);
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_NE(trie.find_exact(*Prefix::parse("10.0.0.0/8")), nullptr);
  EXPECT_EQ(trie.find_exact(*Prefix::parse("10.0.0.0/9")), nullptr);
  EXPECT_TRUE(trie.erase(*Prefix::parse("10.0.0.0/8")));
  EXPECT_FALSE(trie.erase(*Prefix::parse("10.0.0.0/8")));
  EXPECT_TRUE(trie.empty());
}

TEST(PrefixTrie, InsertReplacesValue) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 1);
  trie.insert(*Prefix::parse("10.0.0.0/8"), 2);
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(*trie.lookup(Ipv4Address(10, 1, 1, 1))->value, 2);
}

TEST(PrefixTrie, ForEachVisitsAllEntries) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 1);
  trie.insert(*Prefix::parse("12.34.0.0/16"), 2);
  trie.insert(*Prefix::parse("12.34.56.0/24"), 3);
  int total = 0;
  std::size_t count = 0;
  trie.for_each([&](const Prefix&, int value) {
    total += value;
    ++count;
  });
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(total, 6);
}

TEST(PrefixTrie, HostRouteLeavesMatchExactly) {
  // A /32 is the trie's deepest leaf; its neighbors must still fall back to
  // the covering prefix.
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 1);
  trie.insert(*Prefix::parse("10.0.0.1/32"), 2);
  auto host = trie.lookup(*Ipv4Address::parse("10.0.0.1"));
  ASSERT_TRUE(host);
  EXPECT_EQ(*host->value, 2);
  EXPECT_EQ(host->prefix_length, 32);
  auto sibling_ip = trie.lookup(*Ipv4Address::parse("10.0.0.2"));
  ASSERT_TRUE(sibling_ip);
  EXPECT_EQ(*sibling_ip->value, 1);
  EXPECT_EQ(sibling_ip->prefix_length, 8);
}

TEST(PrefixTrie, EraseFallsBackToCoveringPrefix) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 1);
  trie.insert(*Prefix::parse("10.20.0.0/16"), 2);
  EXPECT_EQ(*trie.lookup(*Ipv4Address::parse("10.20.3.4"))->value, 2);
  EXPECT_TRUE(trie.erase(*Prefix::parse("10.20.0.0/16")));
  auto match = trie.lookup(*Ipv4Address::parse("10.20.3.4"));
  ASSERT_TRUE(match);
  EXPECT_EQ(*match->value, 1);
  EXPECT_EQ(match->prefix_length, 8);
}

TEST(PrefixTrie, ForEachVisitsInLexicographicPrefixOrder) {
  // Insertion order is deliberately scrambled; for_each promises
  // lexicographic prefix order (shorter prefix before its more-specifics).
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("12.34.56.0/24"), 3);
  trie.insert(Prefix(Ipv4Address(0), 0), 0);
  trie.insert(*Prefix::parse("128.0.0.0/1"), 4);
  trie.insert(*Prefix::parse("10.0.0.0/8"), 1);
  trie.insert(*Prefix::parse("12.34.0.0/16"), 2);
  std::vector<std::string> visited;
  trie.for_each([&](const Prefix& prefix, int) {
    visited.push_back(prefix.to_string());
  });
  const std::vector<std::string> golden = {"0.0.0.0/0", "10.0.0.0/8",
                                           "12.34.0.0/16", "12.34.56.0/24",
                                           "128.0.0.0/1"};
  EXPECT_EQ(visited, golden);
}

TEST(PrefixTrie, LookupAgainstLinearScanOnRandomEntries) {
  // Property check: trie LPM must agree with a brute-force scan.
  PrefixTrie<int> trie;
  std::vector<Prefix> prefixes;
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const auto address =
        Ipv4Address(static_cast<std::uint32_t>(rng.next()));
    const int length = static_cast<int>(rng.next_below(25)) + 8;
    Prefix prefix(address, length);
    trie.insert(prefix, static_cast<int>(i));
    prefixes.push_back(prefix);
  }
  for (int i = 0; i < 500; ++i) {
    const auto probe = Ipv4Address(static_cast<std::uint32_t>(rng.next()));
    int best_len = -1;
    for (const Prefix& prefix : prefixes)
      if (prefix.contains(probe)) best_len = std::max(best_len,
                                                      prefix.length());
    auto match = trie.lookup(probe);
    if (best_len < 0) {
      EXPECT_FALSE(match);
    } else {
      ASSERT_TRUE(match);
      EXPECT_EQ(match->prefix_length, best_len);
    }
  }
}

TEST(Packet, EncapsulateDecapsulateStack) {
  Packet packet(Ipv4Address(1, 0, 0, 1), Ipv4Address(6, 0, 0, 1));
  EXPECT_EQ(packet.encapsulation_depth(), 0u);
  packet.encapsulate(Ipv4Address(1, 0, 0, 1), Ipv4Address(2, 0, 0, 1), 7);
  EXPECT_EQ(packet.encapsulation_depth(), 1u);
  EXPECT_EQ(packet.outer().destination, Ipv4Address(2, 0, 0, 1));
  ASSERT_TRUE(packet.outer().tunnel_id);
  EXPECT_EQ(*packet.outer().tunnel_id, 7u);
  EXPECT_EQ(packet.inner().destination, Ipv4Address(6, 0, 0, 1));
  packet.decapsulate();
  EXPECT_EQ(packet.encapsulation_depth(), 0u);
  EXPECT_EQ(packet.outer().destination, Ipv4Address(6, 0, 0, 1));
}

TEST(Packet, TunnelInsideTunnel) {
  Packet packet(Ipv4Address(1), Ipv4Address(2));
  packet.encapsulate(Ipv4Address(3), Ipv4Address(4), 1);
  packet.encapsulate(Ipv4Address(5), Ipv4Address(6), 2);
  EXPECT_EQ(packet.encapsulation_depth(), 2u);
  EXPECT_EQ(*packet.outer().tunnel_id, 2u);
  packet.decapsulate();
  EXPECT_EQ(*packet.outer().tunnel_id, 1u);
}

TEST(Packet, DecapsulateBarePacketThrows) {
  Packet packet(Ipv4Address(1), Ipv4Address(2));
  EXPECT_THROW(packet.decapsulate(), Error);
}

TEST(Packet, RewriteOuterDestination) {
  Packet packet(Ipv4Address(1), Ipv4Address(2));
  packet.encapsulate(Ipv4Address(3), Ipv4Address(4), 9);
  packet.rewrite_outer_destination(Ipv4Address(5));
  EXPECT_EQ(packet.outer().destination, Ipv4Address(5));
  EXPECT_EQ(packet.inner().destination, Ipv4Address(2));
}

TEST(Packet, ToStringOfABarePacketIsItsOwnHeader) {
  const Packet packet(Ipv4Address(1, 0, 0, 1), Ipv4Address(6, 0, 0, 1));
  EXPECT_EQ(packet.to_string(), "[1.0.0.1 -> 6.0.0.1]");
}

TEST(Packet, ToStringListsTheOutermostHeaderFirst) {
  Packet packet(Ipv4Address(1, 0, 0, 1), Ipv4Address(6, 0, 0, 1));
  packet.encapsulate(Ipv4Address(1, 0, 0, 1), Ipv4Address(2, 0, 0, 1), 7);
  packet.encapsulate(Ipv4Address(2, 0, 0, 9), Ipv4Address(3, 0, 0, 1), 12);
  EXPECT_EQ(packet.to_string(),
            "[2.0.0.9 -> 3.0.0.1 tid=12][1.0.0.1 -> 2.0.0.1 tid=7]"
            "[1.0.0.1 -> 6.0.0.1]");
  packet.decapsulate();
  EXPECT_EQ(packet.to_string(),
            "[1.0.0.1 -> 2.0.0.1 tid=7][1.0.0.1 -> 6.0.0.1]");
}

TEST(Packet, ToStringOmitsTheTunnelIdOfAnUntaggedHeader) {
  Packet packet(Ipv4Address(1, 0, 0, 1), Ipv4Address(6, 0, 0, 1));
  packet.encapsulate(Ipv4Address(1, 0, 0, 1), Ipv4Address(2, 0, 0, 1));
  EXPECT_EQ(packet.to_string(), "[1.0.0.1 -> 2.0.0.1][1.0.0.1 -> 6.0.0.1]");
}

TEST(Packet, FlowHashIgnoresEncapsulation) {
  FlowLabel flow{1234, 80, 6, 0};
  Packet bare(Ipv4Address(1), Ipv4Address(2), flow);
  Packet wrapped(Ipv4Address(1), Ipv4Address(2), flow);
  wrapped.encapsulate(Ipv4Address(9), Ipv4Address(8), 3);
  EXPECT_EQ(bare.flow_hash(), wrapped.flow_hash());
}

TEST(Packet, FlowHashDistinguishesFlows) {
  Packet a(Ipv4Address(1), Ipv4Address(2), FlowLabel{1000, 80, 6, 0});
  Packet b(Ipv4Address(1), Ipv4Address(2), FlowLabel{1001, 80, 6, 0});
  EXPECT_NE(a.flow_hash(), b.flow_hash());
}

}  // namespace
}  // namespace miro::net
