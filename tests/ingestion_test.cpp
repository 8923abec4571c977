// Ingestion trust boundary: every malformed input yields a typed
// graph::GraphError with location context — never a crash, an abort, or a
// silently wrong graph (ISSUE: hardened ingestion).
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/corrupt.hpp"
#include "graph/csr.hpp"
#include "graph/errors.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/validate.hpp"
#include "util/pool.hpp"

namespace {

using ent::graph::BuildOptions;
using ent::graph::CorruptionCase;
using ent::graph::Csr;
using ent::graph::Edge;
using ent::graph::edge_t;
using ent::graph::GraphError;
using ent::graph::GraphFormatError;
using ent::graph::GraphIoError;
using ent::graph::vertex_t;

namespace fs = std::filesystem;

// Scratch directory for corpus files, removed on destruction.
class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("ent_ingestion_" +
            std::to_string(
                static_cast<unsigned long long>(::getpid())));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string file(const std::string& name, const std::string& bytes) const {
    const fs::path p = dir_ / name;
    std::ofstream out(p, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    return p.string();
  }

 private:
  fs::path dir_;
};

// --- find_csr_violation on raw arrays (the Csr ctor aborts on violation,
// --- so the checker is exercised on spans directly) ------------------------

TEST(CsrValidation, AcceptsValidArrays) {
  const std::vector<edge_t> offsets{0, 2, 3, 3, 4};
  const std::vector<vertex_t> cols{1, 2, 0, 3};
  EXPECT_FALSE(ent::graph::find_csr_violation(4, offsets, cols).has_value());
}

TEST(CsrValidation, RejectsWrongOffsetCount) {
  const std::vector<edge_t> offsets{0, 1, 2};  // needs 5 entries for n=4
  const std::vector<vertex_t> cols{1, 2};
  const auto v = ent::graph::find_csr_violation(4, offsets, cols);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->invariant.find("num_vertices+1"), std::string::npos);
}

TEST(CsrValidation, RejectsNonZeroFirstOffset) {
  const std::vector<edge_t> offsets{1, 2};
  const std::vector<vertex_t> cols{0, 0};
  const auto v = ent::graph::find_csr_violation(1, offsets, cols);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->invariant.find("start at 0"), std::string::npos);
}

TEST(CsrValidation, RejectsNonMonotoneOffsets) {
  const std::vector<edge_t> offsets{0, 3, 2, 4, 4};
  const std::vector<vertex_t> cols{1, 2, 0, 3};
  const auto v = ent::graph::find_csr_violation(4, offsets, cols);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->invariant.find("monotone"), std::string::npos);
  EXPECT_EQ(v->index, 1u);  // left side of the first decreasing pair
}

TEST(CsrValidation, RejectsEdgeCountMismatch) {
  const std::vector<edge_t> offsets{0, 2, 3, 3, 5};  // claims 5 edges
  const std::vector<vertex_t> cols{1, 2, 0, 3};      // has 4
  const auto v = ent::graph::find_csr_violation(4, offsets, cols);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->invariant.find("edge count"), std::string::npos);
}

TEST(CsrValidation, RejectsOutOfRangeColumn) {
  const std::vector<edge_t> offsets{0, 2, 3, 3, 4};
  const std::vector<vertex_t> cols{1, 9, 0, 3};  // 9 >= n=4
  const auto v = ent::graph::find_csr_violation(4, offsets, cols);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->invariant.find("out of range"), std::string::npos);
  EXPECT_EQ(v->index, 1u);
}

TEST(CsrValidation, ValidCsrObjectPasses) {
  const Csr g = ent::graph::build_csr(4, {{0, 1}, {1, 2}, {2, 3}}, {});
  EXPECT_FALSE(ent::graph::find_csr_violation(g).has_value());
  EXPECT_NO_THROW(ent::graph::validate_csr(g, "unit-test"));
}

// --- builder trust boundary ------------------------------------------------

TEST(BuilderErrors, OutOfRangeEndpointThrowsTyped) {
  try {
    ent::graph::build_csr(4, {{0, 1}, {7, 2}}, {});
    FAIL() << "expected GraphFormatError";
  } catch (const GraphFormatError& e) {
    EXPECT_EQ(e.path(), "<memory>");
    EXPECT_EQ(e.offset(), 1u);  // edge index of the offender
    EXPECT_NE(e.invariant().find("out of range"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("7"), std::string::npos);
  }
  // A list long enough to split into one range per pool thread, with
  // offenders in several ranges: the lowest index wins at every pool size.
  std::vector<Edge> edges(4000);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    edges[i] = {static_cast<vertex_t>(i % 4), static_cast<vertex_t>(i % 3)};
  }
  edges[1234] = {9, 0};
  edges[2100] = {0, 11};
  edges[3999] = {12, 13};
  for (const unsigned threads : {1u, 2u, 4u, 7u}) {
    ent::util::ScopedHostPool pool(threads);
    try {
      ent::graph::build_csr(4, edges, {});
      FAIL() << "expected GraphFormatError at " << threads << " threads";
    } catch (const GraphFormatError& e) {
      EXPECT_EQ(e.offset(), 1234u) << threads << " threads";
      EXPECT_NE(std::string(e.what()).find("(9, 0)"), std::string::npos);
    }
  }
}

// --- generator parameters are checked before any shift or allocation ------

TEST(GeneratorErrors, BadKroneckerParametersThrowTyped) {
  const struct {
    int scale;
    int edge_factor;
    const char* parameter;
  } cases[] = {{0, 16, "scale 0"},
               {29, 16, "scale 29"},  // 2^29 > BuildOptions.max_vertices
               {32, 16, "scale 32"},
               {10, 0, "edge factor 0"},
               {10, -1, "edge factor -1"},
               // 2^20 * 2e9 edges: each bound holds, their product does not.
               {20, 2000000000, "scale 20 and edge factor 2000000000"},
               {28, 16, "scale 28 and edge factor 16"}};
  for (const auto& c : cases) {
    try {
      (void)ent::graph::generate_kronecker({c.scale, c.edge_factor, 1});
      FAIL() << "expected GraphFormatError for " << c.parameter;
    } catch (const GraphFormatError& e) {
      EXPECT_NE(e.invariant().find(c.parameter), std::string::npos)
          << e.what();
    }
  }
}

// --- typed io errors -------------------------------------------------------

TEST(IoErrors, MissingFileThrowsIoErrorWithPath) {
  try {
    (void)ent::graph::load_csr_file("/nonexistent/definitely-missing.bin");
    FAIL() << "expected GraphIoError";
  } catch (const GraphIoError& e) {
    EXPECT_EQ(e.path(), "/nonexistent/definitely-missing.bin");
    EXPECT_NE(std::string(e.what()).find(e.path()), std::string::npos);
  }
}

TEST(IoErrors, TextErrorsCarryLineAndOffset) {
  std::istringstream in("0 1\nfoo bar\n");
  try {
    (void)ent::graph::read_edge_list_text(in, "sample.txt");
    FAIL() << "expected GraphFormatError";
  } catch (const GraphFormatError& e) {
    EXPECT_EQ(e.path(), "sample.txt");
    EXPECT_EQ(e.location().line, 2u);
    EXPECT_EQ(e.offset(), 4u);  // byte offset of the malformed line
  }
}

// --- corruption corpus through the trusted-boundary loader -----------------

TEST(CorruptionCorpus, HasAtLeastTwelveDistinctClasses) {
  const auto corpus = ent::graph::corruption_corpus();
  EXPECT_GE(corpus.size(), 12u);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    for (std::size_t k = i + 1; k < corpus.size(); ++k) {
      EXPECT_NE(corpus[i].name, corpus[k].name);
    }
  }
}

TEST(CorruptionCorpus, ValidSampleLoads) {
  TempDir tmp;
  const std::string path =
      tmp.file("valid.bin", ent::graph::valid_binary_sample());
  const Csr g = ent::graph::load_csr_file(path);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 5u);
}

TEST(CorruptionCorpus, EveryCaseYieldsTypedErrorWithLocation) {
  TempDir tmp;
  for (const CorruptionCase& c : ent::graph::corruption_corpus()) {
    const std::string path = tmp.file(c.name + c.extension, c.bytes);
    bool threw_typed = false;
    try {
      (void)ent::graph::load_csr_file(path);
    } catch (const GraphError& e) {
      threw_typed = true;
      // Location context: the thrower must name the actual file.
      EXPECT_EQ(e.path(), path) << c.name;
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << c.name;
      EXPECT_FALSE(e.invariant().empty()) << c.name;
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.name << ": untyped exception: " << e.what();
      threw_typed = true;  // already reported; avoid double failure below
    }
    EXPECT_TRUE(threw_typed) << c.name << ": malformed input loaded silently";
  }
}

// The corpus also loads as typed errors through the generic suite entry
// point used by every tool (load_or_generate delegates to load_csr_file).
TEST(CorruptionCorpus, StreamReadersRejectWithMemoryPath) {
  for (const CorruptionCase& c : ent::graph::corruption_corpus()) {
    if (c.extension != ".bin") continue;
    std::istringstream in(c.bytes);
    try {
      const ent::graph::EdgeList list = ent::graph::read_edge_list_binary(in);
      // Cases that parse at the stream layer must die in build/validate.
      (void)ent::graph::build_csr(list.num_vertices, list.edges, {});
      ADD_FAILURE() << c.name << ": accepted by stream reader + builder";
    } catch (const GraphError& e) {
      EXPECT_EQ(e.path(), "<memory>") << c.name;
    }
  }
}

// --- fuzz contract ---------------------------------------------------------

TEST(FuzzContract, MutantsEitherLoadOrThrowTyped) {
  TempDir tmp;
  const std::string base = ent::graph::valid_binary_sample();
  int loaded = 0;
  int rejected = 0;
  const auto mutants = ent::graph::fuzz_mutations(base, 64, 0x5eed);
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    const std::string path =
        tmp.file("fuzz-" + std::to_string(i) + ".bin", mutants[i]);
    try {
      const Csr g = ent::graph::load_csr_file(path);
      // Anything that loads passed validate_csr: spot-check the invariants
      // really hold.
      EXPECT_FALSE(ent::graph::find_csr_violation(g).has_value());
      ++loaded;
    } catch (const GraphError&) {
      ++rejected;
    }
    // Any other exception type (or a crash) fails the test by escaping.
  }
  EXPECT_EQ(loaded + rejected, 64);
  // The mutation schedule flips bytes in a 56-byte image; at least some
  // mutants must actually be rejected or the corpus is toothless.
  EXPECT_GT(rejected, 0);
}

}  // namespace
