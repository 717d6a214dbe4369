#include "serve/admin.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dataset/corpus.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "util/rng.hpp"

namespace cfgx::serve {
namespace {

// Minimal blocking HTTP/1.0 client: one request, read to EOF (the server
// sends Connection: close), return the raw response text.
std::string http_get(std::uint16_t port, const std::string& target,
                     const std::string& method = "GET") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      method + " " + target + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string body_of(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

TEST(AdminServerTest, ServesInjectedHandlersOnEphemeralPort) {
  AdminServer server(0, [] { return std::string("{\"x\":1}"); });
  ASSERT_GT(server.port(), 0);

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.0 200"), std::string::npos) << health;
  EXPECT_EQ(body_of(health), "ok\n");

  const std::string statusz = http_get(server.port(), "/statusz");
  EXPECT_NE(statusz.find("200"), std::string::npos);
  EXPECT_NE(statusz.find("application/json"), std::string::npos);
  EXPECT_EQ(body_of(statusz), "{\"x\":1}");

  // Query strings are stripped before routing.
  EXPECT_NE(http_get(server.port(), "/healthz?verbose=1").find("200"),
            std::string::npos);
}

TEST(AdminServerTest, UnknownRouteAndMethodAreTypedErrors) {
  AdminServer server(0, [] { return std::string(); });
  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);
  EXPECT_EQ(body_of(missing), "routes: /healthz /statusz\n");
  EXPECT_NE(http_get(server.port(), "/metrics").find("HTTP/1.0 404"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/statusz", "POST").find("HTTP/1.0 405"),
            std::string::npos);
}

TEST(AdminServerTest, ThrowingHandlerYieldsServerErrorNotACrash) {
  AdminServer server(0, []() -> std::string {
    throw std::runtime_error("boom");
  });
  const std::string failed = http_get(server.port(), "/statusz");
  EXPECT_NE(failed.find("HTTP/1.0 500"), std::string::npos);
  EXPECT_EQ(body_of(failed), "boom\n");
  // The acceptor thread survived the exception.
  EXPECT_NE(http_get(server.port(), "/healthz").find("200"),
            std::string::npos);
}

TEST(AdminServerTest, BindConflictThrows) {
  AdminServer first(0, [] { return std::string(); });
  EXPECT_THROW(AdminServer(first.port(), [] { return std::string(); }),
               std::runtime_error);
}

TEST(AdminServerTest, StopIsIdempotentAndConcurrent) {
  AdminServer server(0, [] { return std::string(); });
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&server] { server.stop(); });
  }
  for (std::thread& t : stoppers) t.join();
  server.stop();  // still fine after everyone joined
}

// --- Engine integration: the acceptance path. -----------------------------

GnnConfig small_gnn_config() {
  GnnConfig config;
  config.gcn_dims = {8, 6};
  return config;
}

ExplainerModelConfig small_theta_config(const GnnConfig& gnn) {
  ExplainerModelConfig config;
  config.embedding_dim = gnn.embedding_dim();
  config.num_classes = gnn.num_classes;
  config.scorer_dims = {8, 1};
  config.surrogate_dims = {8};
  return config;
}

class AdminEngineTest : public ::testing::Test {
 protected:
  AdminEngineTest() : rng_(42), gnn_(small_gnn_config(), rng_) {
    saved_enabled_ = obs::metrics_enabled();
    obs::set_metrics_enabled(true);
    // Counters are process-global and cumulative; the absolute values the
    // tests assert only make sense from a zeroed registry.
    obs::MetricsRegistry::global().reset();
  }
  ~AdminEngineTest() override {
    obs::MetricsRegistry::global().reset();
    obs::set_metrics_enabled(saved_enabled_);
  }

  ExplainerFactory cfg_factory() {
    Rng theta_rng(7);
    return make_cfg_explainer_factory(
        gnn_, ExplainerModel(small_theta_config(gnn_.config()), theta_rng));
  }

  static Acfg corpus_graph(std::size_t index) {
    CorpusConfig config;
    config.samples_per_family = 2;
    config.seed = 3;
    static const Corpus corpus = generate_corpus(config);
    return corpus.graph(index % corpus.size());
  }

  Rng rng_;
  GnnClassifier gnn_;
  bool saved_enabled_ = true;
};

TEST_F(AdminEngineTest, StatuszReportsLiveEngineStateAsValidJson) {
  ServeConfig config;
  config.admin_port = 0;
  ExplanationEngine engine(gnn_, cfg_factory(), config);
  ASSERT_GT(engine.admin_port(), 0);

  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(engine.submit(corpus_graph(i)).get().status,
              ResponseStatus::Ok);
  }

  const std::string body = body_of(http_get(engine.admin_port(), "/statusz"));
  const obs::JsonValue doc = obs::JsonValue::parse(body);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("schema").string_value, "cfgx.statusz.v1");
  EXPECT_GT(doc.at("uptime_seconds").number_value, 0.0);
  EXPECT_EQ(doc.at("inflight").number_value, 0.0);
  EXPECT_EQ(doc.at("requests").at("served_ok").number_value, 4.0);
  EXPECT_GE(doc.at("batch").at("count").number_value, 1.0);
  EXPECT_FALSE(doc.at("isa").string_value.empty());
  EXPECT_TRUE(doc.at("slo").is_object());
  EXPECT_TRUE(doc.at("slo").at("availability").has("burn_short"));
}

// Acceptance hammer: scrapers pound both routes while clients keep the
// engine serving. Run under TSan in CI (serve label) — the point is that
// scraping is safe AGAINST serving, not merely that both survive alone.
TEST_F(AdminEngineTest, ConcurrentScrapeWhileServingHammer) {
  ServeConfig config;
  config.admin_port = 0;
  config.max_batch = 4;
  config.explain_workers = 2;
  config.slow_request_threshold_seconds = 1e-9;  // every request an exemplar
  ExplanationEngine engine(gnn_, cfg_factory(), config);
  const std::uint16_t port = engine.admin_port();

  std::atomic<bool> stop{false};
  std::atomic<int> scrape_failures{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&, t] {
      const char* routes[] = {"/statusz", "/healthz"};
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string response = http_get(port, routes[t % 2]);
        if (response.find("200") == std::string::npos) {
          scrape_failures.fetch_add(1);
        }
      }
    });
  }

  std::vector<std::future<ExplanationResponse>> futures;
  for (int i = 0; i < 48; ++i) {
    futures.push_back(engine.submit(corpus_graph(i)));
  }
  int served = 0;
  for (auto& f : futures) {
    const ExplanationResponse response = f.get();
    if (response.status == ResponseStatus::Ok) ++served;
    EXPECT_NE(response.request_id, 0u);
  }
  stop.store(true);
  for (std::thread& t : scrapers) t.join();

  EXPECT_GT(served, 0);
  EXPECT_EQ(scrape_failures.load(), 0);
  // The statusz body reflects the traffic the scrapers watched happen.
  const obs::JsonValue doc =
      obs::JsonValue::parse(body_of(http_get(port, "/statusz")));
  EXPECT_EQ(doc.at("requests").at("served_ok").number_value,
            static_cast<double>(served));
  EXPECT_GT(doc.at("slow_exemplars").number_value, 0.0);
}

}  // namespace
}  // namespace cfgx::serve
