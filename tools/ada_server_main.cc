// ada_server — the ADA-HEALTH analysis service.
//
// Binds the NDJSON protocol server on the IPv4 loopback and serves
// analysis jobs until a client sends the `shutdown` verb (or the
// process receives SIGINT/SIGTERM, which the default handlers turn
// into a plain exit).
//
// Usage:
//   ada_server [--port N] [--workers N] [--queue-depth N]
//              [--cache-bytes N] [--cache-dir DIR] [--cohort-dir DIR]
//              [--max-connections N] [--idle-timeout-millis D]
//              [--max-result-wait-ms D] [--max-line-bytes N]
//              [--role primary|follower] [--replicate-to PORT]
//
// --cache-dir makes the result cache durable: every finished result is
// one fdatasync'd entry of the directory's store log (result_cache.log)
// before its job reads done, so a SIGKILL loses no finished result; the
// next start replays it.
//
// --cohort-dir makes the streaming cohort store (the `ingest` verb)
// durable: every cohort in the directory lives in one append-only store
// log (cohort_store.log), one fdatasync'd entry per committed batch or
// warm state, and survives crashes batch-atomically. A directory in the
// old per-cohort records/manifest layout, or whose log is corrupt, is
// refused at start.
//
// Sharded clusters (tools/ada_router): start each shard's follower
// with `--role follower`, its primary with `--replicate-to` pointing
// at the follower's port, and give the router both ports. A follower
// rejects submits until the router promotes it.
//
// Prints "listening on port N" once ready (scripts parse this line to
// learn an ephemeral port requested with --port 0).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/string_util.h"
#include "service/server.h"

namespace {

void PrintUsage() {
  std::printf(
      "usage: ada_server [--port N] [--workers N] [--queue-depth N]\n"
      "                  [--cache-bytes N] [--cache-dir DIR]\n"
      "                  [--cohort-dir DIR]\n"
      "                  [--max-connections N] [--idle-timeout-millis D]\n"
      "                  [--max-result-wait-ms D] [--max-line-bytes N]\n"
      "                  [--role primary|follower] [--replicate-to PORT]\n"
      "\n"
      "Serves the ADA-HEALTH NDJSON analysis protocol on 127.0.0.1.\n"
      "--port 0 (the default) picks an ephemeral port, printed on the\n"
      "\"listening on port N\" line. Stop the server with the `shutdown`\n"
      "verb (ada_client shutdown).\n"
      "\n"
      "--cache-dir DIR commits each finished result to DIR/result_cache.log\n"
      "before its job reads done; the next start replays it.\n"
      "\n"
      "Sharded clusters: --role follower starts a warm replica that\n"
      "rejects submits until promoted; --replicate-to PORT makes a\n"
      "primary stream every committed result to that follower.\n");
}

bool ParseIntFlag(const char* text, int64_t* out) {
  auto parsed = adahealth::common::ParseInt64(text);
  if (!parsed.ok()) return false;
  *out = parsed.value();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adahealth;

  service::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    int64_t value = 0;
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintUsage();
      return 0;
    } else if (std::strcmp(arg, "--port") == 0) {
      const char* text = next();
      if (text == nullptr || !ParseIntFlag(text, &value) || value < 0 ||
          value > 65535) {
        std::fprintf(stderr, "ada_server: --port expects 0..65535\n");
        return 2;
      }
      options.port = static_cast<uint16_t>(value);
    } else if (std::strcmp(arg, "--workers") == 0) {
      const char* text = next();
      if (text == nullptr || !ParseIntFlag(text, &value) || value < 1) {
        std::fprintf(stderr, "ada_server: --workers expects >= 1\n");
        return 2;
      }
      options.scheduler.max_workers = static_cast<size_t>(value);
    } else if (std::strcmp(arg, "--queue-depth") == 0) {
      const char* text = next();
      if (text == nullptr || !ParseIntFlag(text, &value) || value < 1) {
        std::fprintf(stderr, "ada_server: --queue-depth expects >= 1\n");
        return 2;
      }
      options.scheduler.max_queue_depth = static_cast<size_t>(value);
    } else if (std::strcmp(arg, "--cache-bytes") == 0) {
      const char* text = next();
      if (text == nullptr || !ParseIntFlag(text, &value) || value < 0) {
        std::fprintf(stderr, "ada_server: --cache-bytes expects >= 0\n");
        return 2;
      }
      options.scheduler.cache_bytes = static_cast<size_t>(value);
    } else if (std::strcmp(arg, "--max-connections") == 0) {
      const char* text = next();
      if (text == nullptr || !ParseIntFlag(text, &value) || value < 1) {
        std::fprintf(stderr, "ada_server: --max-connections expects >= 1\n");
        return 2;
      }
      options.max_connections = static_cast<size_t>(value);
    } else if (std::strcmp(arg, "--idle-timeout-millis") == 0) {
      const char* text = next();
      if (text == nullptr || !ParseIntFlag(text, &value)) {
        std::fprintf(stderr,
                     "ada_server: --idle-timeout-millis expects a number"
                     " (<= 0 disables idle eviction)\n");
        return 2;
      }
      options.idle_timeout_millis = static_cast<double>(value);
    } else if (std::strcmp(arg, "--max-result-wait-ms") == 0) {
      const char* text = next();
      if (text == nullptr || !ParseIntFlag(text, &value) || value < 1) {
        std::fprintf(stderr, "ada_server: --max-result-wait-ms expects >= 1\n");
        return 2;
      }
      options.max_result_wait_millis = static_cast<double>(value);
    } else if (std::strcmp(arg, "--max-line-bytes") == 0) {
      const char* text = next();
      if (text == nullptr || !ParseIntFlag(text, &value) || value < 1) {
        std::fprintf(stderr, "ada_server: --max-line-bytes expects >= 1\n");
        return 2;
      }
      options.max_line_bytes = static_cast<size_t>(value);
    } else if (std::strcmp(arg, "--cache-dir") == 0) {
      const char* text = next();
      if (text == nullptr) {
        std::fprintf(stderr, "ada_server: --cache-dir expects a path\n");
        return 2;
      }
      options.scheduler.cache_directory = text;
    } else if (std::strcmp(arg, "--cohort-dir") == 0) {
      const char* text = next();
      if (text == nullptr) {
        std::fprintf(stderr, "ada_server: --cohort-dir expects a path\n");
        return 2;
      }
      options.cohort_directory = text;
    } else if (std::strcmp(arg, "--role") == 0) {
      const char* text = next();
      if (text != nullptr && std::strcmp(text, "primary") == 0) {
        options.role = service::ServerRole::kPrimary;
      } else if (text != nullptr && std::strcmp(text, "follower") == 0) {
        options.role = service::ServerRole::kFollower;
      } else {
        std::fprintf(stderr,
                     "ada_server: --role expects 'primary' or 'follower'\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--replicate-to") == 0) {
      const char* text = next();
      if (text == nullptr || !ParseIntFlag(text, &value) || value < 1 ||
          value > 65535) {
        std::fprintf(stderr, "ada_server: --replicate-to expects 1..65535\n");
        return 2;
      }
      options.replicate_to_port = static_cast<uint16_t>(value);
    } else {
      std::fprintf(stderr, "ada_server: unknown flag '%s'\n", arg);
      PrintUsage();
      return 2;
    }
  }

  service::AnalysisServer server(std::move(options));
  if (common::Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "ada_server: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("listening on port %u\n", server.port());
  std::fflush(stdout);  // Scripts wait for this line.
  server.Wait();
  std::printf("server stopped\n");
  return 0;
}
