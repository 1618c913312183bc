// One field list per checkpointed component, in the style of
// util::readFields/encodeFields:
//
//   constexpr auto kPointFields = [](auto& p, auto&& field) {
//     field("tick", p.tick);
//     field("samples", p.samples);
//   };
//
// writeFields() runs the list over the live object through FieldWriter;
// readFields() runs it over a scratch object through FieldReader, so the
// save and the restore cannot drift apart. Field types: bool, int,
// std::int64_t, std::uint64_t, double, enums, std::string, vectors of
// double or int, std::vector<std::uint8_t> (0/1 flags), util::Rng,
// util::OnlineStats and util::MovingMean. Shapes beyond one value are
// visitor members: index (an int >= 0), section, count, records (a count,
// then one section per element), keyed (an ascending id column, then one
// column per value field), keyedRecords (a count, then one section per
// entry, led by its id; its list also gets the id), window (a sliding-window record) and require (a
// restore-side check). A keyed shape reads a table — a map keyed by int,
// ckpt::slotTable or ckpt::table — which lists its entries by ascending id
// when saving and creates an id's entry when restoring.
//
// The reader accepts exactly what a save could have written, and throws
// CheckpointError naming the field's path ("observer/info[3]/class") for
// anything else: an int outside int range, an enum past its last
// enumerator (lastEnumerator(E{}), found by ADL), a count the remaining
// payload cannot hold, keyed ids that are negative, not ints or not
// strictly ascending, value columns of another length, or a flag other
// than 0 and 1. The writer adds nothing to BinWriter's record path, and
// nothing is dispatched at run time.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "ckpt/archive.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dike::ckpt {

/// A keyed table's two faces: `each(visit)` calls visit(id, value) in
/// ascending id order (saving), `at(id)` creates and returns id's entry
/// (restoring). `X` is the value type a keyed column list reads.
template <class X, class Each, class At>
struct Table {
  Each each;
  At at;
};
template <class X, class Each, class At>
[[nodiscard]] Table<X, Each, At> table(Each each, At at) {
  return {std::move(each), std::move(at)};
}

/// The slots `has` selects, stored in `slots` behind a dense id -> slot
/// index map `slotOf` (-1: no slot), as a table in ascending id order.
/// Restoring creates an id's slot through `slotFor(id)` and `mark`s it.
template <class Slots, class SlotFor, class Has, class Mark>
[[nodiscard]] auto slotTable(Slots& slots, const std::vector<int>& slotOf,
                             SlotFor slotFor, Has has, Mark mark) {
  return table<typename std::remove_const_t<Slots>::value_type>(
      [&slots, &slotOf, has](auto&& visit) {
        for (std::size_t id = 0; id < slotOf.size(); ++id) {
          const int k = slotOf[id];
          if (k >= 0 && has(slots[static_cast<std::size_t>(k)]))
            visit(static_cast<int>(id), slots[static_cast<std::size_t>(k)]);
        }
      },
      [&slots, slotFor, mark](auto id) -> auto& {
        auto& slot = slots[slotFor(id)];
        mark(slot);
        return slot;
      });
}

/// True for the restoring visitor: a field list grows its scratch object's
/// containers before a record is read into them.
template <class Field>
inline constexpr bool kLoading = std::remove_cvref_t<Field>::kLoading;

namespace detail {

template <class>
inline constexpr bool kNoEncoding = false;

constexpr auto kRngFields = [](auto& s, auto&& field) {
  field("s0", s.s[0]);
  field("s1", s.s[1]);
  field("s2", s.s[2]);
  field("s3", s.s[3]);
  field("spare", s.spare);
  field("haveSpare", s.haveSpare);
};

constexpr auto kOnlineStatsFields = [](auto& s, auto&& field) {
  field("n", s.n);
  field("mean", s.mean);
  field("m2", s.m2);
  field("min", s.min);
  field("max", s.max);
};

/// A sliding window: its size, samples oldest first (ring runs when
/// saving, a vector when restoring) and raw running sum.
template <class Samples>
struct Window {
  std::uint64_t window = 0;
  Samples samples{};
  double sum = 0.0;
};
constexpr auto kWindowFields = [](auto& w, auto&& field) {
  field("window", w.window);
  field("samples", w.samples);
  field("sum", w.sum);
};

template <class M>
concept IntKeyedMap = std::is_same_v<typename M::key_type, int>;

/// A map keyed by int as a table.
template <class Map>
[[nodiscard]] auto tableOf(Map& map) {
  return table<typename std::remove_const_t<Map>::mapped_type>(
      [&map](auto&& visit) {
        std::vector<int> ids;
        ids.reserve(map.size());
        for (const auto& entry : map) ids.push_back(entry.first);
        std::sort(ids.begin(), ids.end());
        for (const int id : ids) visit(id, map.find(id)->second);
      },
      [&map](auto id) -> auto& { return map[id]; });
}

}  // namespace detail

/// The saving visitor.
class FieldWriter {
 public:
  static constexpr bool kLoading = false;
  explicit FieldWriter(BinWriter& w) noexcept : w_(&w) {}

  template <class T>
  void operator()(std::string_view name, const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      w_->boolean(name, v);
    } else if constexpr (std::is_same_v<T, int> ||
                         std::is_same_v<T, std::int64_t> || std::is_enum_v<T>) {
      w_->i64(name, static_cast<std::int64_t>(v));
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      w_->u64(name, v);
    } else if constexpr (std::is_same_v<T, double>) {
      w_->f64(name, v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_->str(name, v);
    } else if constexpr (std::is_same_v<T, std::vector<double>>) {
      w_->vecF64(name, v);
    } else if constexpr (std::is_same_v<T, util::RingRuns>) {
      w_->vecF64(name, v.first, v.second);
    } else if constexpr (std::is_same_v<T, std::vector<int>>) {
      w_->vecInt(name, v);
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      std::vector<std::int64_t> flags(v.size());
      for (std::size_t i = 0; i < v.size(); ++i) flags[i] = v[i] != 0 ? 1 : 0;
      w_->vecI64(name, flags);
    } else if constexpr (std::is_same_v<T, util::Rng>) {
      const util::Rng::State s = v.state();
      section(name, [&] { detail::kRngFields(s, *this); });
    } else if constexpr (std::is_same_v<T, util::OnlineStats>) {
      const util::OnlineStats::State s = v.state();
      section(name, [&] { detail::kOnlineStatsFields(s, *this); });
    } else if constexpr (std::is_same_v<T, util::MovingMean>) {
      const detail::Window<util::RingRuns> w{v.window(), v.runs(), v.rawSum()};
      section(name, [&] { detail::kWindowFields(w, *this); });
    } else {
      static_assert(detail::kNoEncoding<T>, "no checkpoint encoding");
    }
  }

  void index(std::string_view name, int v) { w_->i64(name, v); }

  /// A restore-side check; saved state satisfies it by construction.
  void require(bool, std::string_view, std::string_view) const noexcept {}

  template <class Fn>
  void section(std::string_view name, Fn&& fn) {
    w_->beginSection(name);
    fn();
    w_->endSection();
  }

  std::size_t count(std::string_view name, std::size_t n) {
    w_->i64(name, static_cast<std::int64_t>(n));
    return n;
  }

  template <class T, class Fields>
  void records(std::string_view countName, std::string_view sectionName,
               const std::vector<T>& v, const Fields& fields) {
    count(countName, v.size());
    for (const T& e : v) section(sectionName, [&] { fields(e, *this); });
  }

  template <detail::IntKeyedMap Map, class Columns>
  void keyed(std::string_view idsName, const Map& map,
             const Columns& columns) {
    keyed(idsName, detail::tableOf(map), columns);
  }

  template <class X, class Each, class At, class Columns>
  void keyed(std::string_view idsName, const Table<X, Each, At>& t,
             const Columns& columns) {
    std::vector<std::int64_t> ids;
    std::vector<const X*> values;
    t.each([&](int id, const X& value) {
      ids.push_back(id);
      values.push_back(&value);
    });
    w_->vecI64(idsName, ids);
    // Column j gathers the j-th value field of every entry.
    const X probe{};
    std::size_t j = 0;
    columns(probe, [&](std::string_view name, const auto& first) {
      using T = std::decay_t<decltype(first)>;
      std::vector<std::conditional_t<std::is_same_v<T, double>, double,
                                     std::int64_t>> column;
      for (const X* value : values) {
        std::size_t k = 0;
        columns(*value, [&](std::string_view, const auto& x) {
          if (k++ == j) column.push_back(static_cast<T>(x));
        });
      }
      ++j;
      if constexpr (std::is_same_v<T, double>)
        w_->vecF64(name, column);
      else
        w_->vecI64(name, column);
    });
  }

  template <class X, class Each, class At, class Fields>
  void keyedRecords(std::string_view countName, std::string_view sectionName,
                    std::string_view idName, const Table<X, Each, At>& t,
                    const Fields& fields) {
    std::size_t n = 0;
    t.each([&](int, const auto&) { ++n; });
    count(countName, n);
    t.each([&](int id, const auto& value) {
      section(sectionName, [&] {
        index(idName, id);
        fields(id, value, *this);
      });
    });
  }

  /// `ring()` returns the window's sample ring.
  template <class Ring>
  void window(std::string_view name, std::size_t size,
              const util::WindowedMean& mean, Ring&& ring) {
    const detail::Window<util::RingRuns> w{size, mean.runs(ring()), mean.sum};
    section(name, [&] { detail::kWindowFields(w, *this); });
  }

 private:
  BinWriter* w_;
};

/// The restoring visitor.
class FieldReader {
 public:
  static constexpr bool kLoading = true;
  explicit FieldReader(BinReader& r) noexcept : r_(&r) {}

  template <class T>
  void operator()(std::string_view name, T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = r_->boolean(name);
    } else if constexpr (std::is_same_v<T, int>) {
      v = checkedInt(r_->i64(name), name);
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      v = r_->i64(name);
    } else if constexpr (std::is_enum_v<T>) {
      const std::int64_t x = r_->i64(name);
      require(x >= 0 && x <= static_cast<std::int64_t>(lastEnumerator(T{})),
              name, "names no enumerator");
      v = static_cast<T>(x);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      v = r_->u64(name);
    } else if constexpr (std::is_same_v<T, double>) {
      v = r_->f64(name);
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = r_->str(name);
    } else if constexpr (std::is_same_v<T, std::vector<double>>) {
      v = r_->vecF64(name);
    } else if constexpr (std::is_same_v<T, std::vector<int>>) {
      v = r_->vecInt(name);
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      v.clear();
      for (const std::int64_t flag : r_->vecI64(name)) {
        require(flag == 0 || flag == 1, name, "holds a flag other than 0/1");
        v.push_back(static_cast<std::uint8_t>(flag));
      }
    } else if constexpr (std::is_same_v<T, util::Rng>) {
      util::Rng::State s;
      section(name, [&] { detail::kRngFields(s, *this); });
      v.setState(s);
    } else if constexpr (std::is_same_v<T, util::OnlineStats>) {
      util::OnlineStats::State s;
      section(name, [&] { detail::kOnlineStatsFields(s, *this); });
      v.setState(s);
    } else if constexpr (std::is_same_v<T, util::MovingMean>) {
      const auto w = readWindow(name, v.window());
      v.restore(w.samples, w.sum);
    } else {
      static_assert(detail::kNoEncoding<T>, "no checkpoint encoding");
    }
  }

  void index(std::string_view name, int& v) {
    v = checkedInt(r_->i64(name), name);
    require(v >= 0, name, "is negative");
  }

  /// Throw CheckpointError "checkpoint field '<path of name>' <what>"
  /// unless `ok`.
  void require(bool ok, std::string_view name, std::string_view what) const {
    if (!ok) r_->fail(name, what);
  }

  template <class Fn>
  void section(std::string_view name, Fn&& fn) {
    r_->beginSection(name);
    fn();
    r_->endSection();
  }

  /// The count of records that follow, each at least `minBytes` long.
  std::size_t count(std::string_view name, std::size_t /*saved size*/,
                    std::size_t minBytes = 1) {
    const std::int64_t n = r_->i64(name);
    require(n >= 0 && static_cast<std::uint64_t>(n) <=
                          r_->remaining() / minBytes,
            name, "claims more records than the payload holds");
    return static_cast<std::size_t>(n);
  }

  template <class T, class Fields>
  void records(std::string_view countName, std::string_view sectionName,
               std::vector<T>& v, const Fields& fields) {
    const std::size_t n = count(countName, 0, sectionBytes(sectionName));
    v.clear();
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      r_->beginSection(sectionName, i);
      fields(v.emplace_back(), *this);
      r_->endSection();
    }
  }

  template <detail::IntKeyedMap Map, class Columns>
  void keyed(std::string_view idsName, Map& map, const Columns& columns) {
    map.clear();
    keyed(idsName, detail::tableOf(map), columns);
  }

  template <class X, class Each, class At, class Columns>
  void keyed(std::string_view idsName, const Table<X, Each, At>& t,
             const Columns& columns) {
    const std::vector<std::int64_t> ids = r_->vecI64(idsName);
    for (std::size_t i = 0; i < ids.size(); ++i)
      require(ids[i] >= 0 && ids[i] <= std::numeric_limits<int>::max() &&
                  (i == 0 || ids[i] > ids[i - 1]),
              idsName, "holds an id that is negative, not an int, or not "
                       "above the one before it");
    // Read every column whole, in declaration order, then fill the entries
    // (an int column is range-checked as it is read).
    X probe{};
    std::vector<std::vector<std::int64_t>> ints;
    std::vector<std::vector<double>> doubles;
    columns(probe, [&](std::string_view name, auto& first) {
      using T = std::decay_t<decltype(first)>;
      std::size_t size = 0;
      if constexpr (std::is_same_v<T, double>) {
        size = doubles.emplace_back(r_->vecF64(name)).size();
      } else {
        size = ints.emplace_back(r_->vecI64(name)).size();
        if constexpr (std::is_same_v<T, int>)
          for (const std::int64_t v : ints.back()) (void)checkedInt(v, name);
      }
      require(size == ids.size(), name, "does not hold one entry per id");
    });
    for (std::size_t i = 0; i < ids.size(); ++i) {
      std::size_t nextInt = 0;
      std::size_t nextDouble = 0;
      columns(t.at(static_cast<int>(ids[i])), [&](std::string_view, auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, double>)
          x = doubles[nextDouble++][i];
        else
          x = static_cast<T>(ints[nextInt++][i]);
      });
    }
  }

  template <class X, class Each, class At, class Fields>
  void keyedRecords(std::string_view countName, std::string_view sectionName,
                    std::string_view idName, const Table<X, Each, At>& t,
                    const Fields& fields) {
    const std::size_t n = count(countName, 0, sectionBytes(sectionName));
    int previous = -1;
    for (std::size_t i = 0; i < n; ++i) {
      r_->beginSection(sectionName, i);
      int id = 0;
      index(idName, id);
      require(id > previous, idName, "is not above the previous record's");
      previous = id;
      fields(id, t.at(id), *this);
      r_->endSection();
    }
  }

  /// `ring()` allocates the window's sample ring; it is asked for only
  /// when the record holds samples.
  template <class Ring>
  void window(std::string_view name, std::size_t size,
              util::WindowedMean& mean, Ring&& ring) {
    const auto w = readWindow(name, size);
    mean.restore(w.samples.empty() ? std::span<double>{} : ring(), w.samples,
                 w.sum);
  }

 private:
  int checkedInt(std::int64_t v, std::string_view name) const {
    require(v >= std::numeric_limits<int>::min() &&
                v <= std::numeric_limits<int>::max(),
            name, "holds a value outside int range");
    return static_cast<int>(v);
  }

  /// The least a repeated section occupies: its begin and end records.
  static constexpr std::size_t sectionBytes(std::string_view name) {
    return 2 * (1 + 4 + name.size());
  }

  /// A window of the configured `size`: another saved size means another
  /// config, and more samples than fit are refused.
  detail::Window<std::vector<double>> readWindow(std::string_view name,
                                                 std::size_t size) {
    detail::Window<std::vector<double>> w;
    section(name, [&] {
      detail::kWindowFields(w, *this);
      require(w.window == size, "window",
              "differs from this configuration's (a different config)");
      require(w.samples.size() <= size, "samples",
              "holds more samples than the window");
    });
    return w;
  }

  BinReader* r_;
};

/// Save `obj`'s fields as `fields` names them.
template <class T, class Fields>
void writeFields(BinWriter& w, const T& obj, const Fields& fields) {
  fields(obj, FieldWriter{w});
}

/// Restore `obj`'s fields as `fields` names them, into a scratch object
/// that commits only once the whole record validated.
template <class T, class Fields>
void readFields(BinReader& r, T& obj, const Fields& fields) {
  fields(obj, FieldReader{r});
}

}  // namespace dike::ckpt
