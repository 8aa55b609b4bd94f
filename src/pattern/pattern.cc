#include "pattern/pattern.hh"

#include <bit>
#include <sstream>

#include "support/check.hh"

namespace khuzdul
{

Pattern::Pattern(int size)
    : size_(size)
{
    KHUZDUL_REQUIRE(size >= 0 && size <= kMaxPatternSize,
                    "pattern size must be in [0, " << kMaxPatternSize
                    << "], got " << size);
}

Pattern::Pattern(int size, std::initializer_list<std::pair<int, int>> edges)
    : Pattern(size)
{
    for (const auto &[u, v] : edges)
        addEdge(u, v);
}

Pattern::Pattern(int size, const std::vector<std::pair<int, int>> &edges)
    : Pattern(size)
{
    for (const auto &[u, v] : edges)
        addEdge(u, v);
}

int
Pattern::numEdges() const
{
    int twice = 0;
    for (int v = 0; v < size_; ++v)
        twice += std::popcount(adj_[v]);
    return twice / 2;
}

void
Pattern::addEdge(int u, int v)
{
    KHUZDUL_REQUIRE(u >= 0 && u < size_ && v >= 0 && v < size_ && u != v,
                    "bad pattern edge " << u << "-" << v);
    adj_[u] |= 1u << v;
    adj_[v] |= 1u << u;
}

int
Pattern::degree(int v) const
{
    return std::popcount(adj_[v]);
}

bool
Pattern::connected() const
{
    if (size_ == 0)
        return false;
    std::uint32_t visited = 1;
    std::uint32_t frontier = 1;
    while (frontier) {
        std::uint32_t next = 0;
        for (int v = 0; v < size_; ++v)
            if ((frontier >> v) & 1u)
                next |= adj_[v];
        frontier = next & ~visited;
        visited |= next;
    }
    return std::popcount(visited) == size_;
}

void
Pattern::setLabel(int v, Label label)
{
    KHUZDUL_REQUIRE(v >= 0 && v < size_, "label target out of range");
    labels_[v] = label;
    labeled_ = true;
}

Pattern
Pattern::permuted(const std::array<int, kMaxPatternSize> &perm) const
{
    Pattern out(size_);
    out.labeled_ = labeled_;
    for (int v = 0; v < size_; ++v) {
        out.labels_[perm[v]] = labels_[v];
        std::uint32_t row = 0;
        for (int u = 0; u < size_; ++u)
            if ((adj_[v] >> u) & 1u)
                row |= 1u << perm[u];
        out.adj_[perm[v]] = row;
    }
    return out;
}

std::string
Pattern::toString() const
{
    std::ostringstream os;
    os << "P" << size_ << "[";
    bool first = true;
    for (int u = 0; u < size_; ++u) {
        for (int v = u + 1; v < size_; ++v) {
            if (hasEdge(u, v)) {
                if (!first)
                    os << ",";
                os << u << "-" << v;
                first = false;
            }
        }
    }
    os << "]";
    if (labeled_) {
        os << "{";
        for (int v = 0; v < size_; ++v)
            os << (v ? "," : "") << labels_[v];
        os << "}";
    }
    return os.str();
}

bool
Pattern::operator==(const Pattern &other) const
{
    if (size_ != other.size_ || labeled_ != other.labeled_)
        return false;
    for (int v = 0; v < size_; ++v)
        if (adj_[v] != other.adj_[v] || labels_[v] != other.labels_[v])
            return false;
    return true;
}

Pattern
Pattern::clique(int k)
{
    Pattern p(k);
    for (int u = 0; u < k; ++u)
        for (int v = u + 1; v < k; ++v)
            p.addEdge(u, v);
    return p;
}

Pattern
Pattern::pathOf(int k)
{
    Pattern p(k);
    for (int v = 0; v + 1 < k; ++v)
        p.addEdge(v, v + 1);
    return p;
}

Pattern
Pattern::cycleOf(int k)
{
    KHUZDUL_REQUIRE(k >= 3, "cycle pattern needs >= 3 vertices");
    Pattern p(k);
    for (int v = 0; v < k; ++v)
        p.addEdge(v, (v + 1) % k);
    return p;
}

Pattern
Pattern::starOf(int k)
{
    KHUZDUL_REQUIRE(k >= 2, "star pattern needs >= 2 vertices");
    Pattern p(k);
    for (int v = 1; v < k; ++v)
        p.addEdge(0, v);
    return p;
}

Pattern
Pattern::tailedTriangle()
{
    return Pattern(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
}

Pattern
Pattern::diamond()
{
    return Pattern(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
}

Pattern
Pattern::house()
{
    return Pattern(5, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}, {1, 4}});
}

} // namespace khuzdul
