// Documentation lint (run as `ctest -R docs_lint`): every relative
// markdown link in the repo's top-level *.md files and docs/*.md must
// resolve to an existing file, and every same-file `#anchor` link must
// match a heading; every `hprng.serve.*` / `hprng.state.*` instrument a
// live service registers must be catalogued in docs/OBSERVABILITY.md;
// and every `--flag` the docs mention must exist in a source tree that
// parses it. Keeps README/DESIGN/OBSERVABILITY cross-references from
// rotting as files move.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/hybrid_prng.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "quality/quality.hpp"
#include "serve/service.hpp"
#include "sim/device.hpp"
#include "simd/simd.hpp"
#include "util/file.hpp"

#ifndef HPRNG_SOURCE_DIR
#error "docs_lint_test needs HPRNG_SOURCE_DIR (set in tests/CMakeLists.txt)"
#endif

namespace hprng {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> markdown_files() {
  const fs::path root(HPRNG_SOURCE_DIR);
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(root)) {
    if (entry.is_regular_file() && entry.path().extension() == ".md") {
      files.push_back(entry.path());
    }
  }
  const fs::path docs = root / "docs";
  if (fs::is_directory(docs)) {
    for (const auto& entry : fs::directory_iterator(docs)) {
      if (entry.is_regular_file() && entry.path().extension() == ".md") {
        files.push_back(entry.path());
      }
    }
  }
  return files;
}

/// GitHub-style anchor slug for a heading: lowercase, spaces to dashes,
/// everything but alphanumerics/dashes/underscores dropped.
std::string heading_slug(const std::string& heading) {
  std::string slug;
  for (const char c : heading) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isalnum(u) != 0 || c == '_' || c == '-') {
      slug += static_cast<char>(std::tolower(u));
    } else if (c == ' ') {
      slug += '-';
    }
  }
  return slug;
}

std::vector<std::string> heading_slugs(const std::string& text) {
  std::vector<std::string> slugs;
  std::size_t pos = 0;
  bool in_code_fence = false;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    if (line.rfind("```", 0) == 0) in_code_fence = !in_code_fence;
    if (!in_code_fence && line.rfind("#", 0) == 0) {
      std::size_t level = 0;
      while (level < line.size() && line[level] == '#') ++level;
      if (level < line.size() && line[level] == ' ') {
        slugs.push_back(heading_slug(line.substr(level + 1)));
      }
    }
    pos = eol + 1;
  }
  return slugs;
}

/// Extracts `[text](target)` link targets, skipping fenced code blocks and
/// inline code spans (where "](" is usually sample syntax, not a link).
std::vector<std::string> link_targets(const std::string& text) {
  std::vector<std::string> targets;
  bool in_code_fence = false;
  bool in_code_span = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text.compare(i, 3, "```") == 0) {
      in_code_fence = !in_code_fence;
      i += 2;
      continue;
    }
    if (text[i] == '`') in_code_span = !in_code_span;
    if (in_code_fence || in_code_span) continue;
    if (text[i] != ']' || i + 1 >= text.size() || text[i + 1] != '(') {
      continue;
    }
    const std::size_t start = i + 2;
    const std::size_t end = text.find(')', start);
    if (end == std::string::npos) continue;
    std::string target = text.substr(start, end - start);
    // Strip an optional link title: [x](path "title").
    const std::size_t space = target.find(' ');
    if (space != std::string::npos) target = target.substr(0, space);
    if (!target.empty()) targets.push_back(std::move(target));
  }
  return targets;
}

TEST(DocsLint, RelativeLinksResolve) {
  const std::vector<fs::path> files = markdown_files();
  ASSERT_FALSE(files.empty());
  std::size_t checked = 0;
  for (const fs::path& file : files) {
    std::string text;
    ASSERT_TRUE(util::read_file(file.string(), &text)) << file;
    const std::vector<std::string> slugs = heading_slugs(text);
    for (const std::string& raw : link_targets(text)) {
      if (raw.rfind("http://", 0) == 0 || raw.rfind("https://", 0) == 0 ||
          raw.rfind("mailto:", 0) == 0) {
        continue;
      }
      std::string target = raw;
      std::string fragment;
      const std::size_t hash = target.find('#');
      if (hash != std::string::npos) {
        fragment = target.substr(hash + 1);
        target = target.substr(0, hash);
      }
      ++checked;
      if (target.empty()) {
        // Same-file anchor: the heading must exist.
        EXPECT_NE(std::find(slugs.begin(), slugs.end(), fragment),
                  slugs.end())
            << file.filename() << ": broken anchor `#" << fragment << "`";
        continue;
      }
      const fs::path resolved = file.parent_path() / target;
      EXPECT_TRUE(fs::exists(resolved))
          << file.filename() << ": broken link `" << raw << "` ("
          << resolved << " does not exist)";
    }
  }
  // The repo documents itself heavily; an empty scan means the extractor
  // broke, not that the docs are clean.
  EXPECT_GE(checked, 10u);
}

// The inverse direction of obs_test's EveryDocumentedMetricIsEmitted:
// every serving/state instrument the code registers must be catalogued
// in docs/OBSERVABILITY.md, so new instruments cannot land undocumented.
TEST(DocsLint, ServeAndStateInstrumentsAreCatalogued) {
  obs::MetricsRegistry metrics;
  serve::ServiceOptions opts;
  opts.backend = "cpu-walk";
  opts.num_shards = 1;
  opts.max_leases_per_shard = 2;
  opts.num_workers = 1;
  serve::RngService service(opts, &metrics);  // pre-resolves the catalogue

  std::string doc;
  ASSERT_TRUE(util::read_file(
      std::string(HPRNG_SOURCE_DIR) + "/docs/OBSERVABILITY.md", &doc));
  std::size_t checked = 0;
  for (const std::string& name : metrics.names()) {
    if (name.rfind("hprng.serve.", 0) != 0 &&
        name.rfind("hprng.state.", 0) != 0) {
      continue;
    }
    ++checked;
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "registered instrument `" << name
        << "` is not catalogued in docs/OBSERVABILITY.md";
  }
  // The serve catalogue alone is > a dozen instruments; the state
  // catalogue adds six more and the tenant QoS layer another six. A tiny
  // count means pre-resolution broke.
  EXPECT_GE(checked, 24u);
}

// Same contract for the wire layer (docs/NETWORK.md §10): every
// `hprng.net.*` instrument net::register_catalogue pre-resolves must be
// catalogued in docs/OBSERVABILITY.md. register_catalogue IS the full
// set — NetServer/NetClient resolve their instruments through it — so
// linting it covers everything the layer can ever emit.
TEST(DocsLint, NetInstrumentsAreCatalogued) {
  obs::MetricsRegistry metrics;
  net::register_catalogue(metrics);

  std::string doc;
  ASSERT_TRUE(util::read_file(
      std::string(HPRNG_SOURCE_DIR) + "/docs/OBSERVABILITY.md", &doc));
  std::size_t checked = 0;
  for (const std::string& name : metrics.names()) {
    if (name.rfind("hprng.net.", 0) != 0) continue;
    ++checked;
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "registered instrument `" << name
        << "` is not catalogued in docs/OBSERVABILITY.md";
  }
  // 17 server + 5 client instruments today; a small count means the
  // catalogue pre-resolution broke, not that the docs are clean.
  EXPECT_GE(checked, 22u);
}

// And for the scrubber (docs/QUALITY.md §7): quality::register_catalogue
// pre-resolves every `hprng.quality.*` instrument the scrubber can emit,
// so linting it against docs/OBSERVABILITY.md keeps the quality catalogue
// complete as instruments are added.
TEST(DocsLint, QualityInstrumentsAreCatalogued) {
  obs::MetricsRegistry metrics;
  quality::register_catalogue(metrics);

  std::string doc;
  ASSERT_TRUE(util::read_file(
      std::string(HPRNG_SOURCE_DIR) + "/docs/OBSERVABILITY.md", &doc));
  std::size_t checked = 0;
  for (const std::string& name : metrics.names()) {
    if (name.rfind("hprng.quality.", 0) != 0) continue;
    ++checked;
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "registered instrument `" << name
        << "` is not catalogued in docs/OBSERVABILITY.md";
  }
  // Six counters + six gauges today.
  EXPECT_GE(checked, 12u);
}

// The SIMD info gauges (docs/PERFORMANCE.md §6): wiring metrics into the
// feeder and the pipeline core registers hprng.host.simd_* /
// hprng.core.simd_* eagerly, each must be catalogued, and the kernel-id
// gauge must carry a valid hprng::simd kernel enum value.
TEST(DocsLint, SimdInstrumentsAreCatalogued) {
  obs::MetricsRegistry metrics;
  sim::Device dev;
  core::HybridPrng prng(dev);
  prng.set_metrics(&metrics);  // wires the core AND its feeder

  std::string doc;
  ASSERT_TRUE(util::read_file(
      std::string(HPRNG_SOURCE_DIR) + "/docs/OBSERVABILITY.md", &doc));
  for (const char* name :
       {"hprng.host.simd_kernel", "hprng.host.simd_lanes",
        "hprng.core.simd_kernel", "hprng.core.simd_lanes"}) {
    EXPECT_TRUE(metrics.has(name)) << name << " not registered eagerly";
    EXPECT_NE(doc.find(std::string("`") + name + "`"), std::string::npos)
        << "instrument `" << name
        << "` is not catalogued in docs/OBSERVABILITY.md";
  }
  const auto kernel =
      static_cast<simd::Kernel>(metrics.gauge("hprng.core.simd_kernel").value());
  EXPECT_EQ(kernel, simd::active_kernel());
  EXPECT_EQ(metrics.gauge("hprng.core.simd_lanes").value(),
            simd::lane_width_u32());
  EXPECT_EQ(metrics.gauge("hprng.host.simd_kernel").value(),
            metrics.gauge("hprng.core.simd_kernel").value());
}

// docs/BACKENDS.md is the normative backend spec: every backend name the
// registry accepts must appear there (as `name` — at minimum a registry-
// table row), so a backend cannot land unspecified.
TEST(DocsLint, RegisteredBackendsAreSpecified) {
  std::string doc;
  ASSERT_TRUE(util::read_file(
      std::string(HPRNG_SOURCE_DIR) + "/docs/BACKENDS.md", &doc));
  const std::vector<std::string> backends = serve::known_backends();
  // Walk pair + counter pair + the baseline registry; a short list means
  // known_backends() regressed, not that the docs are clean.
  ASSERT_GE(backends.size(), 10u);
  for (const std::string& name : backends) {
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "backend `" << name
        << "` is registered in src/serve/backend.cpp but has no section "
        << "in docs/BACKENDS.md";
  }
}

/// Collects the `| `TAG` |` section-tag table rows of one markdown file.
void collect_section_tags(const std::string& doc, std::set<std::string>* tags) {
  std::size_t pos = 0;
  while (pos < doc.size()) {
    std::size_t eol = doc.find('\n', pos);
    if (eol == std::string::npos) eol = doc.size();
    const std::string line = doc.substr(pos, eol - pos);
    // A table row naming a section tag: "| `META` | ...".
    if (line.size() >= 9 && line.rfind("| `", 0) == 0 && line[7] == '`') {
      const std::string tag = line.substr(3, 4);
      if (std::all_of(tag.begin(), tag.end(), [](const char c) {
            return std::isupper(static_cast<unsigned char>(c)) != 0;
          })) {
        tags->insert(tag);
      }
    }
    pos = eol + 1;
  }
}

// Every snapshot section FourCC documented in BACKENDS.md, STATE.md or
// QOS.md (the `| `TAG` |` rows of their checkpoint-layout tables) must
// resolve to a fourcc("TAG") constant under src/state/ — the docs cannot
// describe sections the format does not define, and renamed tags must
// update the specs.
TEST(DocsLint, DocumentedSectionTagsExistInState) {
  std::set<std::string> tags;
  for (const char* name : {"BACKENDS.md", "STATE.md", "QOS.md"}) {
    std::string doc;
    ASSERT_TRUE(util::read_file(
        std::string(HPRNG_SOURCE_DIR) + "/docs/" + name, &doc))
        << name;
    collect_section_tags(doc, &tags);
  }
  ASSERT_GE(tags.size(), 6u) << "tag extractor broke (META/OPTS/LEAS/"
                                "HLTH/SHRD/TENQ should all be documented)";
  EXPECT_NE(tags.count("TENQ"), 0u)
      << "docs/QOS.md must document the TENQ snapshot section";

  std::string corpus;
  const fs::path state_dir = fs::path(HPRNG_SOURCE_DIR) / "src" / "state";
  for (const auto& entry : fs::directory_iterator(state_dir)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension();
    if (ext != ".cpp" && ext != ".hpp") continue;
    std::string text;
    ASSERT_TRUE(util::read_file(entry.path().string(), &text))
        << entry.path();
    corpus += text;
    corpus += '\n';
  }
  for (const std::string& tag : tags) {
    EXPECT_NE(corpus.find("fourcc(\"" + tag + "\")"), std::string::npos)
        << "docs/BACKENDS.md documents section tag `" << tag
        << "` but no fourcc(\"" << tag << "\") constant exists in "
        << "src/state/";
  }
}

/// Extracts `--flag` tokens (two dashes, then [a-z][a-z0-9-]+) from text,
/// code fences included — flags mostly live in shell examples.
std::set<std::string> flag_tokens(const std::string& text) {
  std::set<std::string> flags;
  for (std::size_t pos = text.find("--"); pos != std::string::npos;
       pos = text.find("--", pos + 1)) {
    if (pos > 0 && text[pos - 1] == '-') continue;  // --- rules etc.
    std::size_t end = pos + 2;
    while (end < text.size() &&
           (std::islower(static_cast<unsigned char>(text[end])) != 0 ||
            std::isdigit(static_cast<unsigned char>(text[end])) != 0 ||
            text[end] == '-')) {
      ++end;
    }
    if (end - (pos + 2) >= 2) {  // skip one-letter flags like --n
      flags.insert(text.substr(pos + 2, end - (pos + 2)));
    }
  }
  return flags;
}

// Every `--flag` the docs mention must be parsed somewhere in the repo's
// own sources (as the quoted bare name a util::Cli lookup uses, or as the
// dashed literal), so the docs cannot advertise flags that do not exist.
TEST(DocsLint, DocumentedCliFlagsExistInSources) {
  // Flags that belong to external tools (cmake/ctest invocations quoted
  // in build instructions), not to any binary in this repo.
  const std::set<std::string> external = {"build", "test-dir",
                                          "output-on-failure"};

  std::set<std::string> documented;
  for (const fs::path& file : markdown_files()) {
    std::string text;
    ASSERT_TRUE(util::read_file(file.string(), &text)) << file;
    for (const std::string& flag : flag_tokens(text)) {
      if (external.count(flag) == 0) documented.insert(flag);
    }
  }
  ASSERT_GE(documented.size(), 10u) << "flag extractor broke";

  std::string corpus;
  const fs::path root(HPRNG_SOURCE_DIR);
  for (const char* dir : {"src", "bench", "tests", "examples", "perfbench"}) {
    for (const auto& entry :
         fs::recursive_directory_iterator(root / dir)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension();
      if (ext != ".cpp" && ext != ".hpp") continue;
      std::string text;
      ASSERT_TRUE(util::read_file(entry.path().string(), &text))
          << entry.path();
      corpus += text;
      corpus += '\n';
    }
  }
  for (const std::string& flag : documented) {
    const bool found =
        corpus.find("\"" + flag + "\"") != std::string::npos ||
        corpus.find("--" + flag) != std::string::npos;
    EXPECT_TRUE(found) << "docs mention `--" << flag
                       << "` but no source parses it";
  }
}

// docs/QOS.md is the normative multi-tenant spec: it must document every
// tenancy flag serve_load parses (and serve_load must actually parse
// them), name all six tenant instruments, and be reachable from both the
// architecture map and the README so the spec cannot drift out of the
// entry-point docs.
TEST(DocsLint, QosSpecCoversFlagsInstrumentsAndEntryPoints) {
  std::string qos;
  ASSERT_TRUE(util::read_file(
      std::string(HPRNG_SOURCE_DIR) + "/docs/QOS.md", &qos));

  std::string serve_load;
  ASSERT_TRUE(util::read_file(
      std::string(HPRNG_SOURCE_DIR) + "/bench/serve_load.cpp", &serve_load));
  for (const char* flag :
       {"--tenants", "--tenant-skew", "--scenario", "--tenant-json"}) {
    EXPECT_NE(qos.find(flag), std::string::npos)
        << "docs/QOS.md does not document `" << flag << "`";
    EXPECT_NE(serve_load.find(std::string("\"") + (flag + 2) + "\""),
              std::string::npos)
        << "bench/serve_load.cpp does not parse `" << flag << "`";
  }
  for (const char* instrument :
       {"hprng.serve.tenant.active", "hprng.serve.tenant.rejected_rate",
        "hprng.serve.tenant.rejected_quota",
        "hprng.serve.tenant.quota_words_charged",
        "hprng.serve.tenant.quota_words_refunded",
        "hprng.serve.tenant.drr_rounds"}) {
    EXPECT_NE(qos.find(std::string("`") + instrument + "`"),
              std::string::npos)
        << "docs/QOS.md does not name instrument `" << instrument << "`";
  }

  for (const char* entry : {"docs/ARCHITECTURE.md", "README.md"}) {
    std::string text;
    ASSERT_TRUE(util::read_file(
        std::string(HPRNG_SOURCE_DIR) + "/" + entry, &text))
        << entry;
    EXPECT_NE(text.find("QOS.md"), std::string::npos)
        << entry << " does not link docs/QOS.md";
  }
}

}  // namespace
}  // namespace hprng
