#include "graph/binary_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define SMQ_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace smq {

namespace {

constexpr std::uint64_t kMagic = 0x534D515F47524150ull;  // "SMQ_GRAP"
constexpr std::uint32_t kFlagCoordinates = 1u << 0;

// The v2 arrays are written/mapped verbatim, which requires their
// in-memory layout to be exactly the on-disk layout.
static_assert(sizeof(Graph::Neighbor) == 8 &&
                  std::is_trivially_copyable_v<Graph::Neighbor>,
              "v2 maps the adjacency array in place");
static_assert(sizeof(std::size_t) == 8,
              "v2 stores offsets as u64 and maps them as size_t");

/// 64-byte header: every section after it starts 8-byte-aligned both in
/// the file and (since mmap bases are page-aligned) in a mapping.
struct HeaderV2 {
  std::uint64_t magic = kMagic;
  std::uint32_t version = kBinaryFormatVersion;
  std::uint32_t flags = 0;
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t reserved[4] = {0, 0, 0, 0};
};
static_assert(sizeof(HeaderV2) == 64, "header must pad sections to 64");

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("binary graph: truncated input");
  return value;
}

/// Bytes left between the stream's cursor and its end, or -1 when the
/// stream is not seekable (a pipe): the allocation bound below is then
/// skipped and truncation is caught by the read itself.
std::int64_t remaining_bytes(std::istream& in) {
  const std::istream::pos_type pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) return -1;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(pos);
  if (end == std::istream::pos_type(-1) || end < pos) return -1;
  return static_cast<std::int64_t>(end - pos);
}

/// Guard an untrusted on-disk element count against the input that is
/// supposed to contain it: a corrupt header must throw, not drive a
/// multi-exabyte std::vector allocation.
template <typename T>
void check_count_fits(std::uint64_t count, std::int64_t remaining) {
  if (remaining < 0) return;  // non-seekable stream, no bound available
  if (count > static_cast<std::uint64_t>(remaining) / sizeof(T)) {
    throw std::runtime_error(
        "binary graph: array count exceeds remaining file size");
  }
}

template <typename T>
void write_array(std::ostream& out, const T* data, std::size_t count) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(T)));
}

template <typename T>
std::vector<T> read_array(std::istream& in, std::uint64_t count) {
  check_count_fits<T>(count, remaining_bytes(in));
  std::vector<T> data(static_cast<std::size_t>(count));
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(data.size() * sizeof(T)));
  if (!in) throw std::runtime_error("binary graph: truncated array");
  return data;
}

/// v1 layout helper: u64 count, then the elements.
template <typename T>
void write_vector_v1(std::ostream& out, const std::vector<T>& data) {
  write_pod<std::uint64_t>(out, data.size());
  write_array(out, data.data(), data.size());
}

template <typename T>
std::vector<T> read_vector_v1(std::istream& in) {
  return read_array<T>(in, read_pod<std::uint64_t>(in));
}

Graph read_binary_graph_v1(std::istream& in) {
  const auto num_vertices = read_pod<std::uint32_t>(in);
  const auto from = read_vector_v1<std::uint32_t>(in);
  const auto to = read_vector_v1<std::uint32_t>(in);
  const auto weight = read_vector_v1<std::uint32_t>(in);
  if (from.size() != to.size() || from.size() != weight.size()) {
    throw std::runtime_error("binary graph: inconsistent edge arrays");
  }
  std::vector<Edge> edges(from.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (from[i] >= num_vertices || to[i] >= num_vertices) {
      throw std::runtime_error("binary graph: vertex id out of range");
    }
    edges[i] = Edge{from[i], to[i], weight[i]};
  }
  Graph graph = Graph::from_edges(num_vertices, std::move(edges));

  if (read_pod<std::uint8_t>(in) != 0) {
    Coordinates coords;
    coords.x = read_vector_v1<double>(in);
    coords.y = read_vector_v1<double>(in);
    if (coords.x.size() != num_vertices || coords.y.size() != num_vertices) {
      throw std::runtime_error("binary graph: bad coordinates block");
    }
    graph.set_coordinates(std::move(coords));
  }
  return graph;
}

Graph read_binary_graph_v2(std::istream& in, const HeaderV2& header) {
  if (header.num_vertices >
      static_cast<std::uint64_t>(std::numeric_limits<VertexId>::max()) - 1) {
    throw std::runtime_error("binary graph: vertex count exceeds VertexId");
  }
  const auto num_vertices = static_cast<std::size_t>(header.num_vertices);
  auto offsets = read_array<std::size_t>(in, header.num_vertices + 1);
  auto adjacency = read_array<Graph::Neighbor>(in, header.num_edges);
  Graph graph = Graph::from_csr(std::move(offsets), std::move(adjacency));

  if ((header.flags & kFlagCoordinates) != 0) {
    Coordinates coords;
    coords.x = read_array<double>(in, header.num_vertices);
    coords.y = read_array<double>(in, header.num_vertices);
    if (coords.x.size() != num_vertices) {
      throw std::runtime_error("binary graph: bad coordinates block");
    }
    graph.set_coordinates(std::move(coords));
  }
  return graph;
}

#if SMQ_HAVE_MMAP
/// Owns one read-only MAP_PRIVATE mapping; graphs built over it hold it
/// via shared_ptr so the mapping outlives every copy of the graph.
struct MappedFile {
  const char* data = nullptr;
  std::size_t size = 0;

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(const char* d, std::size_t s) : data(d), size(s) {}
  ~MappedFile() {
    if (data != nullptr) ::munmap(const_cast<char*>(data), size);
  }

  static std::shared_ptr<MappedFile> map(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return nullptr;
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
      ::close(fd);
      return nullptr;
    }
    const auto size = static_cast<std::size_t>(st.st_size);
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping keeps its own reference
    if (base == MAP_FAILED) return nullptr;
    return std::make_shared<MappedFile>(static_cast<const char*>(base), size);
  }
};

/// Build a graph over `file`'s v2 payload without copying the CSR
/// arrays. Structural corruption throws, matching the stream reader.
Graph map_v2(std::shared_ptr<MappedFile> file, const std::string& path) {
  HeaderV2 header;
  std::memcpy(&header, file->data, sizeof(header));
  if (header.magic != kMagic) {
    throw std::runtime_error("binary graph: bad magic in " + path);
  }
  if (header.version != kBinaryFormatVersion) {
    throw std::runtime_error("binary graph: unsupported version " +
                             std::to_string(header.version));
  }
  if (header.num_vertices >
      static_cast<std::uint64_t>(std::numeric_limits<VertexId>::max()) - 1) {
    throw std::runtime_error("binary graph: vertex count exceeds VertexId");
  }

  // Section layout, every bound checked against the real file size
  // before any pointer is formed.
  const std::uint64_t payload = file->size - sizeof(HeaderV2);
  const std::uint64_t num_offsets = header.num_vertices + 1;
  check_count_fits<std::size_t>(num_offsets,
                                static_cast<std::int64_t>(payload));
  const std::uint64_t offsets_bytes = num_offsets * sizeof(std::size_t);
  check_count_fits<Graph::Neighbor>(
      header.num_edges, static_cast<std::int64_t>(payload - offsets_bytes));
  const std::uint64_t adjacency_bytes =
      header.num_edges * sizeof(Graph::Neighbor);

  const char* base = file->data + sizeof(HeaderV2);
  const std::span<const std::size_t> offsets{
      reinterpret_cast<const std::size_t*>(base),
      static_cast<std::size_t>(num_offsets)};
  const std::span<const Graph::Neighbor> adjacency{
      reinterpret_cast<const Graph::Neighbor*>(base + offsets_bytes),
      static_cast<std::size_t>(header.num_edges)};

  Graph graph = Graph::from_mapped(offsets, adjacency, file);

  if ((header.flags & kFlagCoordinates) != 0) {
    // Coordinates are copied, not aliased: they are V x 2 doubles (tiny
    // next to the adjacency array) and only A* reads them.
    const std::uint64_t coord_count = 2 * header.num_vertices;
    check_count_fits<double>(
        coord_count,
        static_cast<std::int64_t>(payload - offsets_bytes - adjacency_bytes));
    const auto* x = reinterpret_cast<const double*>(base + offsets_bytes +
                                                    adjacency_bytes);
    Coordinates coords;
    coords.x.assign(x, x + header.num_vertices);
    coords.y.assign(x + header.num_vertices, x + 2 * header.num_vertices);
    graph.set_coordinates(std::move(coords));
  }
  return graph;
}
#endif  // SMQ_HAVE_MMAP

}  // namespace

void write_binary_graph(std::ostream& out, const Graph& graph) {
  HeaderV2 header;
  header.num_vertices = graph.num_vertices();
  header.num_edges = graph.num_edges();
  const Coordinates& coords = graph.coordinates();
  if (!coords.empty()) header.flags |= kFlagCoordinates;
  write_pod(out, header);

  write_array(out, graph.offsets().data(), graph.offsets().size());
  write_array(out, graph.adjacency().data(), graph.adjacency().size());
  if (!coords.empty()) {
    write_array(out, coords.x.data(), coords.x.size());
    write_array(out, coords.y.data(), coords.y.size());
  }
}

void write_binary_graph_v1(std::ostream& out, const Graph& graph) {
  write_pod(out, kMagic);
  write_pod<std::uint32_t>(out, 1);
  write_pod<std::uint32_t>(out, graph.num_vertices());

  std::vector<std::uint32_t> from, to, weight;
  from.reserve(graph.num_edges());
  to.reserve(graph.num_edges());
  weight.reserve(graph.num_edges());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (const Graph::Neighbor& n : graph.neighbors(v)) {
      from.push_back(v);
      to.push_back(n.to);
      weight.push_back(n.weight);
    }
  }
  write_vector_v1(out, from);
  write_vector_v1(out, to);
  write_vector_v1(out, weight);

  const Coordinates& coords = graph.coordinates();
  write_pod<std::uint8_t>(out, coords.empty() ? 0 : 1);
  if (!coords.empty()) {
    write_vector_v1(out, coords.x);
    write_vector_v1(out, coords.y);
  }
}

void save_binary_graph(const std::string& path, const Graph& graph) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("binary graph: cannot open " + path);
  write_binary_graph(out, graph);
  if (!out.flush()) {
    throw std::runtime_error("binary graph: short write to " + path);
  }
}

Graph read_binary_graph(std::istream& in) {
  if (read_pod<std::uint64_t>(in) != kMagic) {
    throw std::runtime_error("binary graph: bad magic");
  }
  const auto version = read_pod<std::uint32_t>(in);
  Graph graph;
  if (version == 1) {
    graph = read_binary_graph_v1(in);
  } else if (version == 2) {
    HeaderV2 header;
    header.flags = read_pod<std::uint32_t>(in);
    header.num_vertices = read_pod<std::uint64_t>(in);
    header.num_edges = read_pod<std::uint64_t>(in);
    for (std::uint64_t& r : header.reserved) r = read_pod<std::uint64_t>(in);
    graph = read_binary_graph_v2(in, header);
  } else {
    throw std::runtime_error("binary graph: unsupported version " +
                             std::to_string(version));
  }
  return graph;
}

Graph load_binary_graph(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("binary graph: cannot open " + path);
  return read_binary_graph(in);
}

Graph load_binary_graph_mmap(const std::string& path) {
#if SMQ_HAVE_MMAP
  std::shared_ptr<MappedFile> file = MappedFile::map(path);
  if (file != nullptr && file->size >= sizeof(HeaderV2)) {
    std::uint32_t version = 0;
    std::memcpy(&version, file->data + sizeof(std::uint64_t),
                sizeof(version));
    // v1 rebuilds an edge list anyway — nothing to map in place.
    if (version != 1) return map_v2(std::move(file), path);
  }
#endif
  return load_binary_graph(path);
}

}  // namespace smq
