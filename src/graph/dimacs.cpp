#include "graph/dimacs.h"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace smq {

namespace {

/// Strip a trailing '\r': files fetched through Windows tooling arrive
/// CRLF-terminated, and the bare '\r' left by getline would otherwise
/// turn blank lines into "unknown tag" errors.
void chomp_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

}  // namespace

Graph read_dimacs_gr(std::istream& in) {
  std::string line;
  VertexId num_vertices = 0;
  std::size_t num_edges = 0;
  std::vector<Edge> edges;
  bool have_header = false;

  while (std::getline(in, line)) {
    chomp_cr(line);
    if (line.empty()) continue;
    std::istringstream ss(line);
    char tag = 0;
    ss >> tag;
    switch (tag) {
      case 'c':
        break;  // comment
      case 'p': {
        if (have_header) {
          throw std::runtime_error("dimacs: duplicate problem line: " + line);
        }
        std::string kind;
        ss >> kind >> num_vertices >> num_edges;
        if (!ss || kind != "sp") {
          throw std::runtime_error("dimacs: bad problem line: " + line);
        }
        edges.reserve(num_edges);
        have_header = true;
        break;
      }
      case 'a': {
        if (!have_header) {
          throw std::runtime_error("dimacs: arc before problem line");
        }
        std::uint64_t u = 0, v = 0;
        std::int64_t w = 0;
        ss >> u >> v >> w;
        // Weights beyond Weight's range must throw: static_cast would
        // silently truncate a 64-bit weight, corrupting every distance
        // computed over the graph.
        if (!ss || u == 0 || v == 0 || u > num_vertices || v > num_vertices ||
            w < 0 ||
            w > static_cast<std::int64_t>(std::numeric_limits<Weight>::max())) {
          throw std::runtime_error("dimacs: bad arc line: " + line);
        }
        if (edges.size() == num_edges) {
          throw std::runtime_error(
              "dimacs: more arcs than the problem line declared (" +
              std::to_string(num_edges) + ")");
        }
        edges.push_back(Edge{static_cast<VertexId>(u - 1),
                             static_cast<VertexId>(v - 1),
                             static_cast<Weight>(w)});
        break;
      }
      default:
        throw std::runtime_error("dimacs: unknown line tag: " + line);
    }
  }
  if (!have_header) throw std::runtime_error("dimacs: missing problem line");
  // A truncated download ends mid-file but parses cleanly line by line;
  // the declared arc count is the integrity check that catches it.
  if (edges.size() != num_edges) {
    throw std::runtime_error(
        "dimacs: arc count mismatch: problem line declared " +
        std::to_string(num_edges) + " arcs, file contains " +
        std::to_string(edges.size()) + " (truncated input?)");
  }
  return Graph::from_edges(num_vertices, std::move(edges));
}

Graph load_dimacs_gr(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("dimacs: cannot open " + path);
  return read_dimacs_gr(in);
}

void read_dimacs_co(std::istream& in, Graph& graph) {
  Coordinates coords;
  coords.x.assign(graph.num_vertices(), 0.0);
  coords.y.assign(graph.num_vertices(), 0.0);
  std::string line;
  while (std::getline(in, line)) {
    chomp_cr(line);
    if (line.empty()) continue;
    std::istringstream ss(line);
    char tag = 0;
    ss >> tag;
    if (tag == 'c' || tag == 'p') continue;
    if (tag != 'v') throw std::runtime_error("dimacs co: bad line: " + line);
    std::uint64_t id = 0;
    double x = 0, y = 0;
    ss >> id >> x >> y;
    if (!ss || id == 0 || id > graph.num_vertices()) {
      throw std::runtime_error("dimacs co: bad vertex line: " + line);
    }
    coords.x[id - 1] = x;
    coords.y[id - 1] = y;
  }
  graph.set_coordinates(std::move(coords));
}

void load_dimacs_co(const std::string& path, Graph& graph) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("dimacs: cannot open " + path);
  read_dimacs_co(in, graph);
}

void write_dimacs_gr(std::ostream& out, const Graph& graph) {
  out << "c generated by smq\n";
  out << "p sp " << graph.num_vertices() << ' ' << graph.num_edges() << '\n';
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (const Graph::Neighbor& n : graph.neighbors(v)) {
      out << "a " << (v + 1) << ' ' << (n.to + 1) << ' ' << n.weight << '\n';
    }
  }
}

}  // namespace smq
