// Unit tests: common utilities (units, Result, RNG, retry, strings, JSON).
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/json.hpp"
#include "common/result.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"

namespace sdt {
namespace {

TEST(Units, SerializationDelay) {
  // 1 Gbps = 1 bit/ns: 1000 bytes = 8000 ns.
  EXPECT_EQ(Gbps{1.0}.serializationNs(1000), 8000);
  // 10 Gbps: 1KB = 800 ns; 100 Gbps: 80 ns.
  EXPECT_EQ(Gbps{10.0}.serializationNs(1000), 800);
  EXPECT_EQ(Gbps{100.0}.serializationNs(1000), 80);
}

TEST(Units, BytesInWindow) {
  EXPECT_DOUBLE_EQ(Gbps{10.0}.bytesIn(800), 1000.0);
}

TEST(Units, Conversions) {
  EXPECT_EQ(usToNs(1.5), 1500);
  EXPECT_EQ(msToNs(2.0), 2'000'000);
  EXPECT_EQ(secToNs(1.0), 1'000'000'000);
  EXPECT_DOUBLE_EQ(nsToSec(500'000'000), 0.5);
}

TEST(Units, RateArithmetic) {
  EXPECT_DOUBLE_EQ((Gbps{100.0} / 2.0).value, 50.0);
  EXPECT_DOUBLE_EQ((Gbps{25.0} * 4.0).value, 100.0);
}

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> bad = makeError("nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "nope");
  EXPECT_EQ(bad.valueOr(7), 7);
}

TEST(Result, StatusDefaultOk) {
  Status<Error> s;
  EXPECT_TRUE(s.ok());
  Status<Error> f = makeError("bad");
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.error().message, "bad");
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRangeAndCoversAll) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  rng.shuffle(v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 8u);
}

TEST(Rng, BetweenCoversSmallRange) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const std::int64_t x = rng.between(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);
}

// Regression: `hi - lo + 1` in signed arithmetic overflows (UB) for the
// full-width span. The width must be computed in uint64_t, where the span
// wraps to 0 and every raw 64-bit draw is a valid result.
TEST(Rng, BetweenFullInt64RangeIsDefined) {
  Rng rng(7);
  constexpr std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  bool sawNegative = false;
  bool sawPositive = false;
  for (int i = 0; i < 64; ++i) {
    const std::int64_t x = rng.between(lo, hi);
    sawNegative = sawNegative || x < 0;
    sawPositive = sawPositive || x > 0;
  }
  // 64 raw draws land on both halves of the range with near certainty.
  EXPECT_TRUE(sawNegative);
  EXPECT_TRUE(sawPositive);
  // Spans over 2^63 but short of full width also must not overflow.
  const std::int64_t y = rng.between(lo, hi - 1);
  EXPECT_LE(y, hi - 1);
}

TEST(Retry, SucceedsWithoutBackoffOnFirstTry) {
  retry::RetryPolicy policy;
  const auto r = retry::retryWithBackoff(policy, 0, [](int) { return true; });
  EXPECT_TRUE(r.succeeded);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.elapsed, 0);
}

// Regression: backoff grew unclamped as a double (`backoff *= multiplier`
// every attempt), exceeding 2^63 within ~64 attempts; casting that to
// TimeNs is UB. With the clamp, 64 exhausted attempts stay bounded by
// maxAttempts * (attemptTimeout + maxBackoff).
TEST(Retry, SixtyFourAttemptsStayClamped) {
  retry::RetryPolicy policy;
  policy.maxAttempts = 64;
  policy.jitter = 0.0;  // deterministic: every wait is the clamped backoff
  retry::RetryCounters counters;
  const auto r = retry::retryWithBackoff(policy, 1, [](int) { return false; },
                                         &counters);
  EXPECT_FALSE(r.succeeded);
  EXPECT_EQ(r.attempts, 64);
  const TimeNs bound = 64 * (policy.attemptTimeout + policy.maxBackoff);
  EXPECT_GT(r.elapsed, 0);
  EXPECT_LE(r.elapsed, bound);
  EXPECT_EQ(counters.attempts, 64u);
  EXPECT_EQ(counters.retries, 63u);  // the last failure does not wait
  EXPECT_EQ(counters.exhausted, 1u);
  EXPECT_LE(counters.backoffNs,
            static_cast<std::uint64_t>(63 * policy.maxBackoff));
}

TEST(Retry, SaturatedWaitClampsAfterJitter) {
  // Every unjittered wait is at least twice maxBackoff, so even the largest
  // jitter cut (half) leaves it past the cap: each wait is exactly
  // maxBackoff. Jitter applies before the clamp, never to the clamped value.
  retry::RetryPolicy policy;
  policy.maxAttempts = 4;
  policy.baseBackoff = msToNs(10.0);
  policy.maxBackoff = msToNs(5.0);
  policy.jitter = 0.5;
  retry::RetryCounters counters;
  const auto r = retry::retryWithBackoff(policy, 3, [](int) { return false; },
                                         &counters);
  EXPECT_EQ(r.attempts, 4);
  EXPECT_EQ(counters.backoffNs, static_cast<std::uint64_t>(3 * policy.maxBackoff));
  EXPECT_EQ(r.elapsed, 4 * policy.attemptTimeout + 3 * policy.maxBackoff);
}

TEST(Retry, CountersAccumulateAcrossExchanges) {
  retry::RetryPolicy policy;
  policy.maxAttempts = 3;
  retry::RetryCounters counters;
  // First exchange succeeds on attempt 2, second exhausts all 3.
  retry::retryWithBackoff(policy, 0, [](int i) { return i == 2; }, &counters);
  retry::retryWithBackoff(policy, 1, [](int) { return false; }, &counters);
  EXPECT_EQ(counters.attempts, 5u);
  EXPECT_EQ(counters.retries, 3u);
  EXPECT_EQ(counters.exhausted, 1u);
}

// Regression: maxAttempts < 1 used to fall straight through the loop and
// return {succeeded=false, attempts=0} — indistinguishable from "tried and
// the switch never answered". The guard makes the degenerate policy explicit.
TEST(Retry, ZeroAttemptBudgetIsNeverAttempted) {
  retry::RetryPolicy policy;
  retry::RetryCounters counters;
  for (const int budget : {0, -1, -100}) {
    policy.maxAttempts = budget;
    int calls = 0;
    const auto r = retry::retryWithBackoff(
        policy, 7, [&](int) { ++calls; return true; }, &counters);
    EXPECT_FALSE(r.succeeded) << budget;
    EXPECT_TRUE(r.neverAttempted) << budget;
    EXPECT_EQ(r.attempts, 0) << budget;
    EXPECT_EQ(r.elapsed, 0) << budget;
    EXPECT_EQ(calls, 0) << "attempt fn ran under a zero budget";
  }
  EXPECT_EQ(counters.attempts, 0u);
  EXPECT_EQ(counters.retries, 0u);
  EXPECT_EQ(counters.exhausted, 3u);  // each empty exchange counts as exhausted
  // A normal exhausted exchange is distinguishable: it *did* attempt.
  policy.maxAttempts = 2;
  const auto r = retry::retryWithBackoff(policy, 7, [](int) { return false; });
  EXPECT_FALSE(r.succeeded);
  EXPECT_FALSE(r.neverAttempted);
  EXPECT_EQ(r.attempts, 2);
}

TEST(Retry, DeterministicAcrossRuns) {
  retry::RetryPolicy policy;
  policy.maxAttempts = 6;
  const auto a = retry::retryWithBackoff(policy, 42, [](int) { return false; });
  const auto b = retry::retryWithBackoff(policy, 42, [](int) { return false; });
  EXPECT_EQ(a.elapsed, b.elapsed);
  const auto c = retry::retryWithBackoff(policy, 43, [](int) { return false; });
  EXPECT_NE(a.elapsed, c.elapsed);  // stream id decorrelates jitter
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x \t\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, Format) {
  EXPECT_EQ(strFormat("%d-%s", 5, "x"), "5-x");
}

TEST(Strings, HumanReadable) {
  EXPECT_EQ(humanBytes(512), "512 B");
  EXPECT_EQ(humanBytes(2048), "2.00 KiB");
  EXPECT_EQ(humanTime(1500), "1.50us");
  EXPECT_EQ(humanTime(2'500'000), "2.50ms");
}

TEST(Json, ParsePrimitives) {
  auto v = json::parse(R"({"a": 1, "b": true, "c": "x", "d": null, "e": 2.5})");
  ASSERT_TRUE(v.ok()) << v.error().message;
  EXPECT_EQ(v.value().getInt("a", 0), 1);
  EXPECT_TRUE(v.value().getBool("b", false));
  EXPECT_EQ(v.value().getString("c", ""), "x");
  EXPECT_TRUE(v.value().at("d").isNull());
  EXPECT_DOUBLE_EQ(v.value().getDouble("e", 0), 2.5);
}

TEST(Json, ParseNested) {
  auto v = json::parse(R"({"links": [[0,1],[1,2]], "meta": {"k": 4}})");
  ASSERT_TRUE(v.ok());
  const auto& links = v.value().at("links").asArray();
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[1].asArray()[1].asInt(), 2);
  EXPECT_EQ(v.value().at("meta").getInt("k", 0), 4);
}

TEST(Json, Comments) {
  auto v = json::parse("{\n// a comment\n\"a\": 1}");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().getInt("a", 0), 1);
}

TEST(Json, StringEscapes) {
  auto v = json::parse(R"(["a\nb", "A"])");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().asArray()[0].asString(), "a\nb");
  EXPECT_EQ(v.value().asArray()[1].asString(), "A");
}

TEST(Json, Errors) {
  EXPECT_FALSE(json::parse("{").ok());
  EXPECT_FALSE(json::parse("[1,]").ok());
  EXPECT_FALSE(json::parse("tru").ok());
  EXPECT_FALSE(json::parse(R"({"a":1} x)").ok());
  EXPECT_FALSE(json::parse("").ok());
}

TEST(Json, DumpRoundTrip) {
  const char* doc = R"({"a":[1,2,{"b":"x"}],"c":true})";
  auto v = json::parse(doc);
  ASSERT_TRUE(v.ok());
  auto round = json::parse(v.value().dump());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value().dump(), v.value().dump());
}

TEST(Json, NegativeAndExponentNumbers) {
  auto v = json::parse(R"([-3, 1e3, -2.5e-1])");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().asArray()[0].asInt(), -3);
  EXPECT_DOUBLE_EQ(v.value().asArray()[1].asDouble(), 1000.0);
  EXPECT_DOUBLE_EQ(v.value().asArray()[2].asDouble(), -0.25);
}

}  // namespace
}  // namespace sdt
