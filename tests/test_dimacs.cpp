// DIMACS ingest hardening: the parser must reject exactly the
// corruptions that a failed download of a multi-gigabyte .gr file
// produces — truncation, weight overflow, duplicated headers — and
// tolerate the cosmetic ones (CRLF line endings).
#include "graph/dimacs.h"

#include <gtest/gtest.h>

#include <sstream>

namespace smq {
namespace {

TEST(DimacsHardening, AcceptsCrlfLineEndings) {
  std::istringstream in(
      "c windows-fetched file\r\n"
      "\r\n"
      "p sp 3 2\r\n"
      "a 1 2 5\r\n"
      "a 2 3 7\r\n");
  const Graph g = read_dimacs_gr(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.neighbors(1)[0].weight, 7u);
}

TEST(DimacsHardening, CoordinatesAcceptCrlf) {
  std::istringstream gr("p sp 2 1\na 1 2 3\n");
  Graph g = read_dimacs_gr(gr);
  std::istringstream co("v 1 -73000000 41000000\r\nv 2 -74000000 42000000\r\n");
  read_dimacs_co(co, g);
  EXPECT_DOUBLE_EQ(g.coordinates().x[0], -73000000.0);
}

TEST(DimacsHardening, RejectsOverweightArc) {
  // 2^32 + 5 would static_cast down to 5 — a silently wrong graph.
  std::istringstream in("p sp 2 1\na 1 2 4294967301\n");
  EXPECT_THROW(read_dimacs_gr(in), std::runtime_error);
}

TEST(DimacsHardening, AcceptsMaxWeight) {
  std::istringstream in("p sp 2 1\na 1 2 4294967295\n");
  const Graph g = read_dimacs_gr(in);
  EXPECT_EQ(g.neighbors(0)[0].weight, 4294967295u);
}

TEST(DimacsHardening, RejectsNegativeWeight) {
  std::istringstream in("p sp 2 1\na 1 2 -7\n");
  EXPECT_THROW(read_dimacs_gr(in), std::runtime_error);
}

TEST(DimacsHardening, RejectsTruncatedFile) {
  // Declares 4 arcs, delivers 2: every line parses, so only the arc
  // count catches the truncation.
  std::istringstream in(
      "p sp 3 4\n"
      "a 1 2 5\n"
      "a 2 3 7\n");
  EXPECT_THROW(read_dimacs_gr(in), std::runtime_error);
}

TEST(DimacsHardening, RejectsExtraArcs) {
  std::istringstream in(
      "p sp 3 1\n"
      "a 1 2 5\n"
      "a 2 3 7\n");
  EXPECT_THROW(read_dimacs_gr(in), std::runtime_error);
}

TEST(DimacsHardening, RejectsDuplicateProblemLine) {
  // A concatenation of two downloads must not parse as one graph.
  std::istringstream in(
      "p sp 2 1\n"
      "a 1 2 5\n"
      "p sp 2 1\n"
      "a 1 2 5\n");
  EXPECT_THROW(read_dimacs_gr(in), std::runtime_error);
}

TEST(DimacsHardening, RejectsArcMissingFields) {
  std::istringstream in("p sp 2 1\na 1 2\n");
  EXPECT_THROW(read_dimacs_gr(in), std::runtime_error);
}

}  // namespace
}  // namespace smq
