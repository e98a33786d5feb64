// The dgc_serve subsystem (docs/SERVING.md): protocol parsing, the
// content-addressed symmetrization cache, and the request handler's
// guarantees — concurrent requests are byte-identical to sequential ones,
// a cache hit provably skips the symmetrize stage, budget aborts and
// malformed requests produce structured errors without killing the
// server, and LRU eviction respects the byte budget.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/rmat.h"
#include "graph/io.h"
#include "obs/metrics.h"
#include "serve/cache.h"
#include "serve/json.h"
#include "serve/request.h"
#include "serve/server.h"
#include "util/logging.h"

namespace dgc {
namespace {

// --- JSON parser -----------------------------------------------------------

TEST(ServeJsonTest, ParsesScalarsAndContainers) {
  auto v = ParseJson(R"({"a": 1.5, "b": [true, null, "x\n"], "c": {}})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->is_object());
  EXPECT_DOUBLE_EQ(v->Find("a")->AsNumber(), 1.5);
  const auto& arr = v->Find("b")->AsArray();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[0].AsBool());
  EXPECT_TRUE(arr[1].is_null());
  EXPECT_EQ(arr[2].AsString(), "x\n");
  EXPECT_TRUE(v->Find("c")->is_object());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(ServeJsonTest, DiagnosticsCarryColumn) {
  auto v = ParseJson("{\"a\": }");
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsInvalidArgument());
  EXPECT_NE(v.status().message().find("request:1:7"), std::string::npos)
      << v.status().ToString();
}

TEST(ServeJsonTest, RejectsDuplicateKeysAndTrailingJunk) {
  EXPECT_FALSE(ParseJson(R"({"a": 1, "a": 2})").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());
  EXPECT_FALSE(ParseJson(R"({"a": 1,})").ok());
}

TEST(ServeJsonTest, EnforcesLimitsDuringScan) {
  JsonLimits limits;
  limits.max_depth = 3;
  auto deep = ParseJson("[[[[1]]]]", limits);
  ASSERT_FALSE(deep.ok());
  EXPECT_TRUE(deep.status().IsOutOfRange()) << deep.status().ToString();

  limits = JsonLimits();
  limits.max_bytes = 8;
  auto big = ParseJson(R"({"aaaaaaaa": 1})", limits);
  ASSERT_FALSE(big.ok());
  EXPECT_TRUE(big.status().IsOutOfRange());

  limits = JsonLimits();
  limits.max_string_bytes = 4;
  auto str = ParseJson(R"("abcdefgh")", limits);
  ASSERT_FALSE(str.ok());
  EXPECT_TRUE(str.status().IsOutOfRange());
}

TEST(ServeJsonTest, RejectsNonAsciiEscapesAndBadNumbers) {
  // Raw UTF-8 passes through; \u escapes beyond ASCII are an explicit
  // error, not a mangled decode.
  auto raw = ParseJson("\"\xc3\xa9\"");
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->AsString(), "\xc3\xa9");
  EXPECT_FALSE(ParseJson(R"("\u00e9")").ok());
  auto escaped = ParseJson(R"("A")");
  ASSERT_TRUE(escaped.ok());
  EXPECT_EQ(escaped->AsString(), "A");
  EXPECT_FALSE(ParseJson("1e999").ok());  // overflows to inf: rejected
  EXPECT_FALSE(ParseJson("--1").ok());
}

// --- request parsing -------------------------------------------------------

TEST(ServeRequestTest, DefaultsAndStrictUnknownFields) {
  auto req = ParseServeRequest(R"({"graph": "/tmp/g.txt"})");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->method, SymmetrizationMethod::kDegreeDiscounted);
  EXPECT_EQ(req->cache, CacheMode::kUse);
  EXPECT_FALSE(req->shutdown);

  auto typo = ParseServeRequest(R"({"graph": "g", "thresold": 0.1})");
  ASSERT_FALSE(typo.ok());
  EXPECT_NE(typo.status().message().find("thresold"), std::string::npos);

  auto wrong_type = ParseServeRequest(R"({"graph": "g", "threads": 2.5})");
  ASSERT_FALSE(wrong_type.ok());
  EXPECT_NE(wrong_type.status().message().find("threads"), std::string::npos);

  auto no_graph = ParseServeRequest(R"({"method": "dd"})");
  ASSERT_FALSE(no_graph.ok());

  auto shutdown = ParseServeRequest(R"({"op": "shutdown"})");
  ASSERT_TRUE(shutdown.ok());
  EXPECT_TRUE(shutdown->shutdown);

  auto bad_schema = ParseServeRequest(
      R"({"schema": "dgc.serve.request.v2", "graph": "g"})");
  ASSERT_FALSE(bad_schema.ok());
}

TEST(ServeRequestTest, ReorderIsAnUnknownField) {
  // `reorder` is not a request field: a client that sends it gets the
  // strict unknown-field error naming it, never a silent default.
  auto req = ParseServeRequest(R"({"graph": "g", "reorder": "rcm"})");
  ASSERT_FALSE(req.ok());
  EXPECT_TRUE(req.status().IsInvalidArgument()) << req.status().ToString();
  EXPECT_NE(req.status().message().find("unknown request field \"reorder\""),
            std::string::npos)
      << req.status().ToString();
}

TEST(ServeRequestTest, CacheKeyCoversStageOneFieldsOnly) {
  ServeRequest a;
  a.graph_path = "g";
  ServeRequest b = a;
  const uint64_t h = 0x1234;
  EXPECT_EQ(CacheKeyForRequest(a, h), CacheKeyForRequest(b, h));
  // Stage-2 knobs must not split the cache.
  b.inflation = 4.0;
  b.threads = 8;
  b.labels = true;
  EXPECT_EQ(CacheKeyForRequest(a, h), CacheKeyForRequest(b, h));
  // Every stage-1 knob must.
  b = a;
  b.alpha = 0.25;
  EXPECT_NE(CacheKeyForRequest(a, h), CacheKeyForRequest(b, h));
  b = a;
  b.threshold = 0.5;
  EXPECT_NE(CacheKeyForRequest(a, h), CacheKeyForRequest(b, h));
  b = a;
  b.method = SymmetrizationMethod::kAPlusAT;
  EXPECT_NE(CacheKeyForRequest(a, h), CacheKeyForRequest(b, h));
  EXPECT_NE(CacheKeyForRequest(a, h), CacheKeyForRequest(a, h + 1));
}

// --- cache -----------------------------------------------------------------

std::shared_ptr<const UGraph> MakeUGraph(Index n) {
  std::vector<std::tuple<Index, Index, Scalar>> edges;
  for (Index i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1, 1.0);
  auto g = UGraph::FromEdges(n, edges);
  DGC_CHECK(g.ok());
  return std::make_shared<const UGraph>(std::move(*g));
}

TEST(SymmetrizationCacheTest, LruEvictionUnderByteBudget) {
  MetricsRegistry metrics;
  auto g = MakeUGraph(64);
  const int64_t one = UGraphCacheBytes(*g);
  SymmetrizationCache cache(2 * one, &metrics);

  cache.Insert("a", g);
  cache.Insert("b", MakeUGraph(64));
  EXPECT_EQ(cache.num_entries(), 2);
  // Touch "a" so "b" is the LRU victim.
  EXPECT_NE(cache.Lookup("a"), nullptr);
  cache.Insert("c", MakeUGraph(64));
  EXPECT_EQ(cache.num_entries(), 2);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(metrics.CounterValue("serve.cache.evictions"), 1);
  EXPECT_LE(cache.resident_bytes(), 2 * one);

  // An entry bigger than the whole budget is refused outright.
  SymmetrizationCache tiny(one / 2, nullptr);
  tiny.Insert("big", g);
  EXPECT_EQ(tiny.num_entries(), 0);

  // A hit pins the graph across eviction.
  auto pinned = cache.Lookup("a");
  cache.Erase("a");
  EXPECT_EQ(pinned->NumVertices(), 64);
}

TEST(SymmetrizationCacheTest, ContentHashSeesEveryArray) {
  auto g1 = Digraph::FromEdges(3, {{0, 1, 1.0}, {1, 2, 2.0}});
  auto g2 = Digraph::FromEdges(3, {{0, 1, 1.0}, {1, 2, 3.0}});  // weight
  auto g3 = Digraph::FromEdges(3, {{0, 1, 1.0}, {0, 2, 2.0}});  // structure
  ASSERT_TRUE(g1.ok() && g2.ok() && g3.ok());
  const uint64_t h1 = GraphContentHash(g1->adjacency());
  EXPECT_NE(h1, GraphContentHash(g2->adjacency()));
  EXPECT_NE(h1, GraphContentHash(g3->adjacency()));
  EXPECT_EQ(h1, GraphContentHash(g1->adjacency()));
}

// --- server ----------------------------------------------------------------

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dgc_serve_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  /// Writes an R-MAT graph file and returns its path. Scale 6 keeps unit
  /// runs fast; WriteRmat(10) is big enough that deadline_ms=1 always
  /// trips mid-pipeline (the pattern pipeline_budget_test.cc pins).
  std::string WriteRmat(int scale, const std::string& name) {
    RmatOptions gen;
    gen.scale = scale;
    gen.edge_factor = 6.0;
    auto dataset = GenerateRmat(gen);
    DGC_CHECK(dataset.ok());
    DGC_CHECK(WriteEdgeList(dataset->graph, Path(name)).ok());
    return Path(name);
  }

  std::filesystem::path dir_;
};

TEST_F(ServeTest, ColdMissThenHitSkipsSymmetrizeStage) {
  const std::string graph = WriteRmat(6, "g.txt");
  MetricsRegistry metrics;
  ServeOptions options;
  options.metrics = &metrics;
  Server server(options);

  const std::string request = R"({"id": "q", "graph": ")" + graph +
                              R"(", "threshold": 0.01, "labels": true})";
  const std::string cold = server.HandleRequestLine(request);
  EXPECT_NE(cold.find("\"ok\": true"), std::string::npos) << cold;
  EXPECT_NE(cold.find("\"cache\": \"miss\""), std::string::npos) << cold;
  // The cold run report contains the symmetrize stage span.
  EXPECT_NE(cold.find("\"name\": \"symmetrize\""), std::string::npos);

  const std::string hit = server.HandleRequestLine(request);
  EXPECT_NE(hit.find("\"cache\": \"hit\""), std::string::npos) << hit;
  // The hit report must NOT contain a symmetrize span — the SpGEMM was
  // skipped — and says so via the pipeline span annotation.
  EXPECT_EQ(hit.find("\"name\": \"symmetrize\""), std::string::npos) << hit;
  EXPECT_NE(hit.find("\"symmetrize\": \"cached\""), std::string::npos) << hit;

  EXPECT_EQ(metrics.CounterValue("serve.cache.misses"), 1);
  EXPECT_EQ(metrics.CounterValue("serve.cache.hits"), 1);

  // Byte-identical labels: clustering a cached symmetrization must equal
  // clustering a fresh one.
  const auto labels_of = [](const std::string& response) {
    const size_t start = response.find("\"labels\": [");
    const size_t end = response.find(']', start);
    return response.substr(start, end - start);
  };
  EXPECT_EQ(labels_of(cold), labels_of(hit));
}

TEST_F(ServeTest, CacheDiscriminatesStageOneParameters) {
  const std::string graph = WriteRmat(6, "g.txt");
  Server server(ServeOptions{});
  const std::string base = R"({"graph": ")" + graph + R"(")";
  EXPECT_NE(server.HandleRequestLine(base + "}").find("\"cache\": \"miss\""),
            std::string::npos);
  // Different alpha → different stage-1 output → must not hit.
  EXPECT_NE(server.HandleRequestLine(base + R"(, "alpha": 0.25})")
                .find("\"cache\": \"miss\""),
            std::string::npos);
  // Different inflation (stage 2 only) → must hit.
  EXPECT_NE(server.HandleRequestLine(base + R"(, "inflation": 3.0})")
                .find("\"cache\": \"hit\""),
            std::string::npos);
  // refresh recomputes even though an entry exists.
  EXPECT_NE(server.HandleRequestLine(base + R"(, "cache": "refresh"})")
                .find("\"cache\": \"refresh\""),
            std::string::npos);
  // bypass neither reads nor writes.
  EXPECT_NE(server.HandleRequestLine(base + R"(, "cache": "bypass"})")
                .find("\"cache\": \"bypass\""),
            std::string::npos);
}

TEST_F(ServeTest, ConcurrentRequestsAreByteIdenticalToSequential) {
  const std::string graph = WriteRmat(6, "g.txt");
  // bypass + redact_timings: every response is a pure function of the
  // request (no cache state, no clocks), so concurrency must not change a
  // byte anywhere in the envelope, labels or embedded report.
  const std::string request =
      R"({"id": "same", "graph": ")" + graph +
      R"(", "threshold": 0.01, "cache": "bypass", "labels": true,)" +
      R"( "redact_timings": true, "threads": 2})";

  Server server(ServeOptions{});
  const std::string reference = server.HandleRequestLine(request);
  ASSERT_NE(reference.find("\"ok\": true"), std::string::npos) << reference;

  constexpr int kThreads = 4;
  std::vector<std::string> responses(kThreads);
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t]() {
        responses[static_cast<size_t>(t)] = server.HandleRequestLine(request);
      });
    }
    for (std::thread& w : workers) w.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(responses[static_cast<size_t>(t)], reference)
        << "response " << t << " diverged";
  }
}

TEST_F(ServeTest, LruEvictionUnderTinyServerBudget) {
  const std::string g1 = WriteRmat(6, "g1.txt");
  RmatOptions gen;
  gen.scale = 6;
  gen.edge_factor = 6.0;
  gen.seed = 99;  // same shape, different content → different cache entry
  auto dataset = GenerateRmat(gen);
  ASSERT_TRUE(dataset.ok());
  ASSERT_TRUE(WriteEdgeList(dataset->graph, Path("g2.txt")).ok());
  const std::string g2 = Path("g2.txt");

  const auto request = [](const std::string& path) {
    return R"({"graph": ")" + path + R"(", "threshold": 0.01})";
  };

  // Measure one entry's footprint with an unconstrained server, then size
  // the real budget to hold one entry but never two.
  int64_t one_entry = 0;
  {
    Server probe(ServeOptions{});
    probe.HandleRequestLine(request(g1));
    one_entry = probe.cache().resident_bytes();
    ASSERT_GT(one_entry, 0);
  }

  MetricsRegistry metrics;
  ServeOptions options;
  options.metrics = &metrics;
  options.cache_max_bytes = one_entry + one_entry / 2;
  Server server(std::move(options));

  EXPECT_NE(server.HandleRequestLine(request(g1)).find("\"cache\": \"miss\""),
            std::string::npos);
  EXPECT_EQ(server.cache().num_entries(), 1);
  EXPECT_NE(server.HandleRequestLine(request(g2)).find("\"cache\": \"miss\""),
            std::string::npos);
  EXPECT_GE(metrics.CounterValue("serve.cache.evictions"), 1);
  EXPECT_EQ(server.cache().num_entries(), 1);
  // g1 was evicted to make room for g2, so it misses again (and evicts g2
  // in turn — the LRU churns but never exceeds the budget).
  EXPECT_NE(server.HandleRequestLine(request(g1)).find("\"cache\": \"miss\""),
            std::string::npos);
  EXPECT_LE(server.cache().resident_bytes(), options.cache_max_bytes);
}

TEST_F(ServeTest, MalformedRequestsReturnErrorsWithoutKillingServer) {
  const std::string graph = WriteRmat(6, "g.txt");
  Server server(ServeOptions{});

  const auto expect_error = [&](const std::string& line,
                                const std::string& code) {
    const std::string response = server.HandleRequestLine(line);
    EXPECT_NE(response.find("\"ok\": false"), std::string::npos) << response;
    EXPECT_NE(response.find("\"status\": \"" + code + "\""),
              std::string::npos)
        << response;
  };
  expect_error("not json at all", "InvalidArgument");
  expect_error("[1, 2, 3]", "InvalidArgument");
  expect_error(R"({"graph": "g", "unknown_field": 1})", "InvalidArgument");
  expect_error(R"({"graph": 42})", "InvalidArgument");
  expect_error(R"({"graph": "g", "cache": "sometimes"})", "InvalidArgument");
  expect_error(R"({"graph": ")" + Path("absent.txt") + R"("})", "IOError");
  EXPECT_FALSE(server.shutdown_requested());

  // The server still serves real work after every class of bad input.
  const std::string good =
      server.HandleRequestLine(R"({"graph": ")" + graph + R"("})");
  EXPECT_NE(good.find("\"ok\": true"), std::string::npos) << good;
}

TEST_F(ServeTest, BudgetAbortMidRequestReturnsStructuredError) {
  // Scale 10 with deadline_ms=1: the deadline trips inside the pipeline
  // deterministically (pipeline_budget_test.cc pins this graph size).
  const std::string graph = WriteRmat(10, "big.txt");
  Server server(ServeOptions{});

  const std::string aborted = server.HandleRequestLine(
      R"({"id": "slow", "graph": ")" + graph +
      R"(", "threshold": 0.01, "deadline_ms": 1})");
  EXPECT_NE(aborted.find("\"ok\": false"), std::string::npos) << aborted;
  EXPECT_NE(aborted.find("\"status\": \"DeadlineExceeded\""),
            std::string::npos)
      << aborted;
  // The partial span tree rides along, stamped with the terminal status.
  EXPECT_NE(aborted.find("\"report\": {"), std::string::npos) << aborted;
  EXPECT_NE(aborted.find("DeadlineExceeded"), std::string::npos);

  const std::string memory = server.HandleRequestLine(
      R"({"graph": ")" + graph +
      R"(", "threshold": 0.01, "max_memory_bytes": 1, "cache": "bypass"})");
  EXPECT_NE(memory.find("\"status\": \"ResourceExhausted\""),
            std::string::npos)
      << memory;

  // The daemon survives both aborts.
  const std::string small = WriteRmat(6, "small.txt");
  const std::string good =
      server.HandleRequestLine(R"({"graph": ")" + small + R"("})");
  EXPECT_NE(good.find("\"ok\": true"), std::string::npos) << good;
}

TEST_F(ServeTest, ServeStreamHandlesRequestsUntilShutdown) {
  const std::string graph = WriteRmat(6, "g.txt");
  Server server(ServeOptions{});
  std::istringstream in(R"({"id": "1", "graph": ")" + graph + R"("})" +
                        std::string("\n") + "\n" +  // blank line: ignored
                        R"({"id": "2", "op": "shutdown"})" + "\n" +
                        R"({"id": "never", "graph": ")" + graph + R"("})" +
                        "\n");
  std::ostringstream out;
  ASSERT_TRUE(server.ServeStream(in, out).ok());
  EXPECT_TRUE(server.shutdown_requested());

  std::istringstream lines(out.str());
  std::vector<std::string> responses;
  for (std::string line; std::getline(lines, line);) responses.push_back(line);
  // Two responses: the request and the shutdown ack; nothing after.
  ASSERT_EQ(responses.size(), 2u) << out.str();
  EXPECT_NE(responses[0].find("\"id\": \"1\""), std::string::npos);
  EXPECT_NE(responses[1].find("\"shutdown\": true"), std::string::npos);
}

// --- apply_delta (docs/DYNAMIC.md) -----------------------------------------

/// Extracts the quoted value of `"key": "..."` from a response line.
std::string QuotedField(const std::string& response, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const size_t start = response.find(needle);
  if (start == std::string::npos) return "";
  const size_t begin = start + needle.size();
  return response.substr(begin, response.find('"', begin) - begin);
}

TEST_F(ServeTest, ApplyDeltaChainsSessionsAndReportsLocality) {
  // A fixed 8-vertex directed ring, so delta endpoints are known a priori
  // (an R-MAT sample could already contain any arc we try to insert).
  std::vector<Edge> ring;
  for (Index u = 0; u < 8; ++u) ring.push_back(Edge{u, (u + 1) % 8, 1.0});
  auto g = Digraph::FromEdges(8, ring);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(WriteEdgeList(*g, Path("ring.txt")).ok());
  const std::string graph = Path("ring.txt");

  MetricsRegistry metrics;
  ServeOptions options;
  options.metrics = &metrics;
  Server server(options);

  // First batch: delete the 0->1 arc, insert a chord. A fresh session is
  // created (disposition "chain"), the delta span + counters report a
  // strict subset of rows recomputed, and the chained digest is stamped.
  const std::string first = server.HandleRequestLine(
      R"({"id": "d1", "op": "apply_delta", "graph": ")" + graph +
      R"(", "deletes": [[0, 1]], "inserts": [[0, 2, 1.0]]})");
  EXPECT_NE(first.find("\"ok\": true"), std::string::npos) << first;
  EXPECT_EQ(QuotedField(first, "cache"), "chain") << first;
  EXPECT_NE(first.find("\"name\": \"delta\""), std::string::npos) << first;
  const std::string digest1 = QuotedField(first, "delta");
  EXPECT_EQ(digest1.size(), 16u) << first;
  const int64_t recomputed =
      metrics.CounterValue("serve.incremental.rows_recomputed");
  EXPECT_EQ(metrics.CounterValue("serve.incremental.rows_total"), 8);
  EXPECT_GT(recomputed, 0);
  EXPECT_LT(recomputed, 8);
  EXPECT_EQ(server.num_delta_sessions(), 1);

  // Second batch on the same session undoes the first: the session holds
  // the previous flow matrix so clustering warm-starts ("chain+warm"),
  // the digest advances, and no new session is created.
  const std::string second = server.HandleRequestLine(
      R"({"id": "d2", "op": "apply_delta", "graph": ")" + graph +
      R"(", "deletes": [[0, 2]], "inserts": [[0, 1, 1.0]]})");
  EXPECT_NE(second.find("\"ok\": true"), std::string::npos) << second;
  EXPECT_EQ(QuotedField(second, "cache"), "chain+warm") << second;
  const std::string digest2 = QuotedField(second, "delta");
  EXPECT_EQ(digest2.size(), 16u) << second;
  EXPECT_NE(digest2, digest1);
  EXPECT_EQ(server.num_delta_sessions(), 1);

  // Graph-dependent validation surfaces as a structured error — deleting
  // an arc that is gone after the second batch... 0->2 was re-deleted, so
  // deleting it again must fail without killing the server or the session.
  const std::string bad = server.HandleRequestLine(
      R"({"id": "d3", "op": "apply_delta", "graph": ")" + graph +
      R"(", "deletes": [[0, 2]]})");
  EXPECT_NE(bad.find("\"ok\": false"), std::string::npos) << bad;
  EXPECT_EQ(server.num_delta_sessions(), 1);

  // Delta payloads on a non-delta request are a schema violation.
  const std::string stray = server.HandleRequestLine(
      R"({"id": "d4", "graph": ")" + graph + R"(", "inserts": [[1, 3]]})");
  EXPECT_NE(stray.find("\"ok\": false"), std::string::npos) << stray;
}

}  // namespace
}  // namespace dgc
