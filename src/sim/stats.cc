#include "sim/stats.hh"

#include <algorithm>

#include "sim/domain.hh"
#include "sim/logging.hh"

namespace barre
{

namespace
{

/** @p name matches @p pattern, whose '*' stands for one decimal index. */
bool
matches(std::string_view pattern, std::string_view name)
{
    const std::size_t star = pattern.find('*');
    if (star == std::string_view::npos)
        return pattern == name;
    const std::size_t end =
        std::min(name.find_first_not_of("0123456789", star), name.size());
    return end > star && name.substr(0, star) == pattern.substr(0, star) &&
           name.substr(end) == pattern.substr(star + 1);
}

} // namespace

void
StatRegistry::insert(std::string_view name, Source src)
{
    barre_assert(!contains(name), "duplicate stat name '%.*s'",
                 int(name.size()), name.data());
    stats_.push_back(Stat{std::string(name), std::move(src)});
}

void
StatRegistry::shard(std::size_t tags)
{
    for (Stat &s : stats_)
        if (TagCounter **c = std::get_if<TagCounter *>(&s.src))
            (*c)->shard(tags);
}

bool
StatRegistry::contains(std::string_view pattern) const
{
    return std::any_of(stats_.begin(), stats_.end(), [&](const Stat &s) {
        return matches(pattern, s.name);
    });
}

std::uint64_t
StatRegistry::valueOf(const Stat &s)
{
    if (const auto *c = std::get_if<const Counter *>(&s.src))
        return (*c)->value();
    if (const auto *t = std::get_if<TagCounter *>(&s.src))
        return (*t)->value();
    if (const auto *f = std::get_if<Formula>(&s.src))
        return (*f)();
    barre_panic("stat '%s' is a mean, not a count", s.name.c_str());
}

std::uint64_t
StatRegistry::count(std::string_view pattern) const
{
    barre_assert(contains(pattern), "no stat named '%.*s'",
                 int(pattern.size()), pattern.data());
    std::uint64_t sum = 0;
    for (const Stat &s : stats_)
        if (matches(pattern, s.name))
            sum += valueOf(s);
    return sum;
}

double
StatRegistry::mean(std::string_view name) const
{
    auto it = std::find_if(stats_.begin(), stats_.end(),
                           [&](const Stat &s) { return s.name == name; });
    const auto *a = it == stats_.end()
                        ? nullptr
                        : std::get_if<const Accumulator *>(&it->src);
    barre_assert(a, "no mean named '%.*s'", int(name.size()), name.data());
    return (*a)->mean();
}

void
StatRegistry::dump(std::ostream &os) const
{
    for (const Stat &s : stats_) {
        os << s.name << " ";
        if (const auto *a = std::get_if<const Accumulator *>(&s.src))
            os << (*a)->mean() << "\n";
        else
            os << valueOf(s) << "\n";
    }
}

} // namespace barre
