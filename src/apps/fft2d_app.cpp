#include "apps/fft2d_app.hpp"

#include <cassert>
#include <cstring>
#include <memory>

#include "vorx/multicast.hpp"
#include "vorx/node.hpp"

namespace hpcvorx::apps {

namespace {

// Cost of the application examining/copying one received byte during the
// exchange.  This symmetric per-byte charge is precisely why multicast
// loses: it applies to *everything read*, needed or not (§4.2).
constexpr sim::Duration kScanPerByte = 150;  // ns/B

hw::Payload pack(const Complex* src, std::size_t count) {
  std::vector<std::byte> bytes(count * sizeof(Complex));
  std::memcpy(bytes.data(), src, bytes.size());
  return hw::make_payload(std::move(bytes));
}

void unpack(const hw::Payload& data, Complex* dst, std::size_t count) {
  assert(data->size() == count * sizeof(Complex));
  std::memcpy(dst, data->data(), data->size());
}

// Shared experiment state (one allocation per run).
struct Shared {
  Fft2dConfig cfg;
  std::vector<Complex> input;            // n x n row-major
  std::vector<Complex> output;           // column blocks written by nodes
  std::vector<sim::SimTime> xstart, xend;
  std::vector<std::uint64_t> bytes_read;
  int rows_per_node = 0;
  // Complex values per exchange message (fits one HPC frame).
  static constexpr std::size_t kPerMsg = 64;  // 64 x 16 B = 1024 B
};

// Phase 1, common to both strategies: 1-D FFT of my rows (real arithmetic
// plus the modelled 68882 cost).
sim::Task<std::vector<Complex>> phase1_rows(vorx::Subprocess& sp,
                                            const Shared& st, int me) {
  const int n = st.cfg.n;
  const int rpn = st.rows_per_node;
  const int r0 = me * rpn;
  std::vector<Complex> rows(st.input.begin() + static_cast<long>(r0) * n,
                            st.input.begin() + static_cast<long>(r0 + rpn) * n);
  for (int r = 0; r < rpn; ++r) {
    co_await sp.compute(fft_cost(n));
    fft(std::span<Complex>(rows.data() + static_cast<long>(r) * n,
                           static_cast<std::size_t>(n)));
  }
  co_return rows;
}

// Phase 2, common: 1-D FFT of my columns, publish into the shared output.
sim::Task<void> phase2_columns(vorx::Subprocess& sp, Shared& st, int me,
                               std::vector<Complex>& cols) {
  const int n = st.cfg.n;
  const int rpn = st.rows_per_node;
  const int c0 = me * rpn;
  for (int c = 0; c < rpn; ++c) {
    co_await sp.compute(fft_cost(n));
    fft(std::span<Complex>(cols.data() + static_cast<std::size_t>(c) * n,
                           static_cast<std::size_t>(n)));
  }
  for (int c = 0; c < rpn; ++c) {
    for (int r = 0; r < n; ++r) {
      st.output[static_cast<std::size_t>(r) * n + (c0 + c)] =
          cols[static_cast<std::size_t>(c) * n + r];
    }
  }
  co_return;
}

// ---- personalized (point-to-point) exchange -------------------------------

sim::Task<void> personalized_node(vorx::Subprocess& sp,
                                  std::shared_ptr<Shared> st, int me,
                                  std::shared_ptr<sim::Gate> done) {
  const int n = st->cfg.n;
  const int p = st->cfg.p;
  const int rpn = st->rows_per_node;
  const int r0 = me * rpn;
  const int c0 = me * rpn;

  std::vector<Complex> rows = co_await phase1_rows(sp, *st, me);

  // One channel per peer (both sides open the canonical low-high name).
  auto chans = std::make_shared<std::vector<vorx::Channel*>>(
      static_cast<std::size_t>(p), nullptr);
  for (int j = 0; j < p; ++j) {
    if (j == me) continue;
    const std::string name = "fx" + std::to_string(std::min(me, j)) + "_" +
                             std::to_string(std::max(me, j));
    (*chans)[static_cast<std::size_t>(j)] = co_await sp.open(name);
  }

  st->xstart[static_cast<std::size_t>(me)] = sp.node().simulator().now();

  // My slice of the column matrix: rpn columns x n rows, column-major.
  auto cols = std::make_shared<std::vector<Complex>>(
      static_cast<std::size_t>(rpn) * n);
  // Local contribution (my rows x my columns) needs no message.
  for (int r = 0; r < rpn; ++r) {
    for (int c = 0; c < rpn; ++c) {
      (*cols)[static_cast<std::size_t>(c) * n + (r0 + r)] =
          rows[static_cast<std::size_t>(r) * n + (c0 + c)];
    }
  }

  // Reader subprocess (the §5 input/compute split — prevents the
  // all-write-then-read deadlock when blocks exceed the side buffers).
  auto reader_done = std::make_shared<sim::Gate>(sp.node().simulator(), 1);
  sp.process().spawn(
      [st, me, cols, chans, reader_done](vorx::Subprocess& rsp)
          -> sim::Task<void> {  // vorx-lint: allow(R2) closure is copied into the Process's AppFn, which outlives the Task
        const int n = st->cfg.n;
        const int p = st->cfg.p;
        const int rpn = st->rows_per_node;
        std::vector<Complex> buf(Shared::kPerMsg);
        for (int j = 0; j < p; ++j) {
          if (j == me) continue;
          // Peer j sends rpn*rpn values: its rows restricted to my columns.
          std::size_t remaining =
              static_cast<std::size_t>(rpn) * static_cast<std::size_t>(rpn);
          std::size_t idx = 0;  // (row-of-j, my-col) linear index
          while (remaining > 0) {
            vorx::ChannelMsg m =
                co_await rsp.read(*(*chans)[static_cast<std::size_t>(j)]);
            const std::size_t cnt = m.bytes / sizeof(Complex);
            co_await rsp.compute(static_cast<sim::Duration>(m.bytes) *
                                 kScanPerByte);
            st->bytes_read[static_cast<std::size_t>(me)] += m.bytes;
            unpack(m.data, buf.data(), cnt);
            for (std::size_t k = 0; k < cnt; ++k, ++idx) {
              const int r = j * rpn + static_cast<int>(idx) / rpn;
              const int c = static_cast<int>(idx) % rpn;
              (*cols)[static_cast<std::size_t>(c) * n + r] = buf[k];
            }
            remaining -= cnt;
          }
        }
        reader_done->arrive();
      },
      sim::prio::kUserDefault, "fft-rx");

  // Writer: send each peer only its columns of my rows.
  for (int j = 0; j < p; ++j) {
    if (j == me) continue;
    std::vector<Complex> block;
    block.reserve(static_cast<std::size_t>(rpn) * rpn);
    for (int r = 0; r < rpn; ++r) {
      for (int c = 0; c < rpn; ++c) {
        block.push_back(rows[static_cast<std::size_t>(r) * n + (j * rpn + c)]);
      }
    }
    for (std::size_t off = 0; off < block.size(); off += Shared::kPerMsg) {
      const std::size_t cnt = std::min(Shared::kPerMsg, block.size() - off);
      co_await sp.write(*(*chans)[static_cast<std::size_t>(j)],
                        static_cast<std::uint32_t>(cnt * sizeof(Complex)),
                        pack(block.data() + off, cnt));
    }
  }

  co_await reader_done->wait();
  st->xend[static_cast<std::size_t>(me)] = sp.node().simulator().now();

  co_await phase2_columns(sp, *st, me, *cols);
  done->arrive();
}

// ---- multicast exchange ----------------------------------------------------

sim::Task<void> multicast_node(vorx::Subprocess& sp,
                               std::shared_ptr<Shared> st, int me,
                               std::shared_ptr<std::vector<vorx::Mcast*>> groups,
                               std::shared_ptr<sim::Gate> done) {
  const int n = st->cfg.n;
  const int rpn = st->rows_per_node;

  std::vector<Complex> rows = co_await phase1_rows(sp, *st, me);

  st->xstart[static_cast<std::size_t>(me)] = sp.node().simulator().now();

  auto cols = std::make_shared<std::vector<Complex>>(
      static_cast<std::size_t>(rpn) * n);

  // Reader: every group's complete rows — "each processor reads 65536
  // numbers of which only 256 are needed" — keeping only my columns.
  auto reader_done = std::make_shared<sim::Gate>(sp.node().simulator(), 1);
  sp.process().spawn(
      [st, me, cols, groups, reader_done](vorx::Subprocess& rsp)
          -> sim::Task<void> {  // vorx-lint: allow(R2) closure is copied into the Process's AppFn, which outlives the Task
        const int n = st->cfg.n;
        const int p = st->cfg.p;
        const int rpn = st->rows_per_node;
        const int c0 = me * rpn;
        std::vector<Complex> buf(Shared::kPerMsg);
        for (int src = 0; src < p; ++src) {
          std::size_t remaining =
              static_cast<std::size_t>(rpn) * static_cast<std::size_t>(n);
          std::size_t idx = 0;  // linear over src's (row, col)
          while (remaining > 0) {
            vorx::ChannelMsg m =
                co_await (*groups)[static_cast<std::size_t>(src)]->read(rsp);
            const std::size_t cnt = m.bytes / sizeof(Complex);
            co_await rsp.compute(static_cast<sim::Duration>(m.bytes) *
                                 kScanPerByte);
            st->bytes_read[static_cast<std::size_t>(me)] += m.bytes;
            unpack(m.data, buf.data(), cnt);
            for (std::size_t k = 0; k < cnt; ++k, ++idx) {
              const int r = src * rpn + static_cast<int>(idx) / n;
              const int c = static_cast<int>(idx) % n;
              if (c >= c0 && c < c0 + rpn) {
                (*cols)[static_cast<std::size_t>(c - c0) * n + r] = buf[k];
              }
            }
            remaining -= cnt;
          }
        }
        reader_done->arrive();
      },
      sim::prio::kUserDefault, "fft-mrx");

  // Writer: multicast my entire rows to everyone.
  vorx::Mcast* mine = (*groups)[static_cast<std::size_t>(me)];
  for (std::size_t off = 0; off < rows.size(); off += Shared::kPerMsg) {
    const std::size_t cnt = std::min(Shared::kPerMsg, rows.size() - off);
    co_await mine->write(sp, static_cast<std::uint32_t>(cnt * sizeof(Complex)),
                         pack(rows.data() + off, cnt));
  }

  co_await reader_done->wait();
  st->xend[static_cast<std::size_t>(me)] = sp.node().simulator().now();

  co_await phase2_columns(sp, *st, me, *cols);
  done->arrive();
}

}  // namespace

Fft2dResult run_fft2d(sim::Simulator& sim, vorx::System& sys,
                      const Fft2dConfig& cfg) {
  assert(cfg.n % cfg.p == 0 && sys.num_nodes() >= cfg.p);
  assert((cfg.n & (cfg.n - 1)) == 0);
  auto st = std::make_shared<Shared>();
  st->cfg = cfg;
  st->rows_per_node = cfg.n / cfg.p;
  st->input = make_test_image(cfg.n, cfg.seed);
  st->output.assign(static_cast<std::size_t>(cfg.n) * cfg.n, Complex(0));
  st->xstart.assign(static_cast<std::size_t>(cfg.p), 0);
  st->xend.assign(static_cast<std::size_t>(cfg.p), 0);
  st->bytes_read.assign(static_cast<std::size_t>(cfg.p), 0);

  auto done = std::make_shared<sim::Gate>(sim, static_cast<std::size_t>(cfg.p));
  const sim::SimTime started = sim.now();

  if (cfg.use_multicast) {
    // One group per source row-owner; every node joins all of them.
    std::vector<hw::StationId> members;
    for (int i = 0; i < cfg.p; ++i) members.push_back(sys.node_station(i));
    std::vector<std::shared_ptr<std::vector<vorx::Mcast*>>> handles(
        static_cast<std::size_t>(cfg.p));
    for (int i = 0; i < cfg.p; ++i) {
      handles[static_cast<std::size_t>(i)] =
          std::make_shared<std::vector<vorx::Mcast*>>();
    }
    std::vector<int> node_indices;
    for (int i = 0; i < cfg.p; ++i) node_indices.push_back(i);
    for (int root = 0; root < cfg.p; ++root) {
      auto group = sys.create_multicast_group(
          7000 + static_cast<std::uint64_t>(root), node_indices, root,
          cfg.mcast_mode);
      for (int i = 0; i < cfg.p; ++i) {
        handles[static_cast<std::size_t>(i)]->push_back(
            group[static_cast<std::size_t>(i)]);
      }
    }
    for (int i = 0; i < cfg.p; ++i) {
      auto groups = handles[static_cast<std::size_t>(i)];
      sys.node(i).spawn_process(
          "fft2d." + std::to_string(i),
          [st, i, groups, done](vorx::Subprocess& sp) -> sim::Task<void> {  // vorx-lint: allow(R2) closure is copied into the Process's AppFn, which outlives the Task
            co_await multicast_node(sp, st, i, groups, done);
          });
    }
  } else {
    for (int i = 0; i < cfg.p; ++i) {
      sys.node(i).spawn_process(
          "fft2d." + std::to_string(i),
          [st, i, done](vorx::Subprocess& sp) -> sim::Task<void> {  // vorx-lint: allow(R2) closure is copied into the Process's AppFn, which outlives the Task
            co_await personalized_node(sp, st, i, done);
          });
    }
  }
  sim.run();

  Fft2dResult res;
  res.elapsed = sim.now() - started;
  for (int i = 0; i < cfg.p; ++i) {
    res.exchange_elapsed =
        std::max(res.exchange_elapsed, st->xend[static_cast<std::size_t>(i)] -
                                           st->xstart[static_cast<std::size_t>(i)]);
    res.bytes_received += st->bytes_read[static_cast<std::size_t>(i)];
  }
  // Every node needs (p-1)/p of the matrix: its columns from other nodes.
  res.bytes_needed = static_cast<std::uint64_t>(cfg.n) * cfg.n *
                     sizeof(Complex) / static_cast<std::uint64_t>(cfg.p) *
                     static_cast<std::uint64_t>(cfg.p - 1);

  std::vector<Complex> serial = st->input;
  fft2d(serial, cfg.n);
  res.matches_serial = serial == st->output;
  res.result_checksum = checksum(st->output);
  return res;
}

}  // namespace hpcvorx::apps
