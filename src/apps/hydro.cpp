#include "tibsim/apps/hydro.hpp"

#include <algorithm>
#include <cmath>

#include "tibsim/common/assert.hpp"

namespace tibsim::apps {

using perfmodel::AccessPattern;
using perfmodel::WorkProfile;

// ---------------------------------------------------------------------------
// EulerSolver2D (real numerics)
// ---------------------------------------------------------------------------

EulerSolver2D::EulerSolver2D(std::size_t nx, std::size_t ny, double gamma)
    : nx_(nx), ny_(ny), gamma_(gamma) {
  TIB_REQUIRE(nx >= 4 && ny >= 2);
  TIB_REQUIRE(gamma > 1.0);
  dx_ = 1.0 / static_cast<double>(nx);
  dy_ = 1.0 / static_cast<double>(ny);
  cells_.assign(nx * ny, State{});
  next_.assign(nx * ny, State{});
}

EulerSolver2D::State& EulerSolver2D::at(std::size_t i, std::size_t j) {
  TIB_REQUIRE(i < nx_ && j < ny_);
  return cells_[j * nx_ + i];
}

const EulerSolver2D::State& EulerSolver2D::at(std::size_t i,
                                              std::size_t j) const {
  TIB_REQUIRE(i < nx_ && j < ny_);
  return cells_[j * nx_ + i];
}

void EulerSolver2D::initSodShockTube() {
  for (std::size_t j = 0; j < ny_; ++j) {
    for (std::size_t i = 0; i < nx_; ++i) {
      State& s = cells_[j * nx_ + i];
      const bool left = i < nx_ / 2;
      const double rho = left ? 1.0 : 0.125;
      const double pres = left ? 1.0 : 0.1;
      s.rho = rho;
      s.momx = 0.0;
      s.momy = 0.0;
      s.energy = pres / (gamma_ - 1.0);
    }
  }
  time_ = 0.0;
}

double EulerSolver2D::pressure(const State& s) const {
  const double kinetic = 0.5 * (s.momx * s.momx + s.momy * s.momy) / s.rho;
  return (gamma_ - 1.0) * (s.energy - kinetic);
}

double EulerSolver2D::soundSpeed(const State& s) const {
  return std::sqrt(std::max(0.0, gamma_ * pressure(s) / s.rho));
}

EulerSolver2D::Flux EulerSolver2D::physicalFluxX(const State& s) const {
  const double u = s.momx / s.rho;
  const double p = pressure(s);
  return {s.momx, s.momx * u + p, s.momy * u, (s.energy + p) * u};
}

EulerSolver2D::Flux EulerSolver2D::physicalFluxY(const State& s) const {
  const double v = s.momy / s.rho;
  const double p = pressure(s);
  return {s.momy, s.momx * v, s.momy * v + p, (s.energy + p) * v};
}

double EulerSolver2D::maxWaveSpeed() const {
  double speed = 1e-12;
  for (const State& s : cells_) {
    const double u = std::abs(s.momx / s.rho);
    const double v = std::abs(s.momy / s.rho);
    speed = std::max(speed, std::max(u, v) + soundSpeed(s));
  }
  return speed;
}

double EulerSolver2D::step(double cfl) {
  TIB_REQUIRE(cfl > 0.0 && cfl < 1.0);
  const double dt =
      cfl * std::min(dx_, dy_) / maxWaveSpeed();

  // Lax-Friedrichs: U_i' = avg(neighbours) - dt/(2dx) (F_{i+1} - F_{i-1}),
  // with reflecting x boundaries and periodic y (the tube is uniform in y).
  auto idx = [this](std::size_t i, std::size_t j) { return j * nx_ + i; };
  for (std::size_t j = 0; j < ny_; ++j) {
    const std::size_t jm = (j + ny_ - 1) % ny_;
    const std::size_t jp = (j + 1) % ny_;
    for (std::size_t i = 0; i < nx_; ++i) {
      const std::size_t im = i == 0 ? 0 : i - 1;
      const std::size_t ip = i + 1 == nx_ ? nx_ - 1 : i + 1;
      const State& left = cells_[idx(im, j)];
      const State& right = cells_[idx(ip, j)];
      const State& down = cells_[idx(i, jm)];
      const State& up = cells_[idx(i, jp)];

      const Flux fxl = physicalFluxX(left);
      const Flux fxr = physicalFluxX(right);
      const Flux fyd = physicalFluxY(down);
      const Flux fyu = physicalFluxY(up);

      State& out = next_[idx(i, j)];
      out.rho = 0.25 * (left.rho + right.rho + down.rho + up.rho) -
                dt / (2.0 * dx_) * (fxr.rho - fxl.rho) -
                dt / (2.0 * dy_) * (fyu.rho - fyd.rho);
      out.momx = 0.25 * (left.momx + right.momx + down.momx + up.momx) -
                 dt / (2.0 * dx_) * (fxr.momx - fxl.momx) -
                 dt / (2.0 * dy_) * (fyu.momx - fyd.momx);
      out.momy = 0.25 * (left.momy + right.momy + down.momy + up.momy) -
                 dt / (2.0 * dx_) * (fxr.momy - fxl.momy) -
                 dt / (2.0 * dy_) * (fyu.momy - fyd.momy);
      out.energy =
          0.25 * (left.energy + right.energy + down.energy + up.energy) -
          dt / (2.0 * dx_) * (fxr.energy - fxl.energy) -
          dt / (2.0 * dy_) * (fyu.energy - fyd.energy);
    }
  }
  std::swap(cells_, next_);
  time_ += dt;
  return dt;
}

double EulerSolver2D::totalMass() const {
  double mass = 0.0;
  for (const State& s : cells_) mass += s.rho;
  return mass * dx_ * dy_;
}

double EulerSolver2D::totalEnergy() const {
  double energy = 0.0;
  for (const State& s : cells_) energy += s.energy;
  return energy * dx_ * dy_;
}

// ---------------------------------------------------------------------------
// HydroBenchmark (distributed skeleton)
// ---------------------------------------------------------------------------

mpi::MpiWorld::RankBody HydroBenchmark::rankBody(Params params) {
  TIB_REQUIRE(params.nx >= 64 && params.ny >= 64 && params.steps >= 1);
  return [params](mpi::MpiContext& ctx) {
    const int p = ctx.size();
    const double rows = static_cast<double>(params.ny) / p;
    const double nx = static_cast<double>(params.nx);
    // 4 conserved variables, 2 ghost rows per side.
    const auto haloBytes = static_cast<std::size_t>(nx * 4.0 * 8.0);

    for (int step = 0; step < params.steps; ++step) {
      // Dimensional splitting: an x-sweep and a y-sweep per step, each
      // preceded by a halo exchange with the row neighbours (red-black
      // schedule). ~75 FLOPs per cell per sweep, with a small imbalance
      // from the refinement pattern.
      for (int sweep = 0; sweep < 2; ++sweep) {
        ctx.neighborExchange(haloBytes, 100 + 2 * sweep);
        ctx.compute(WorkProfile{75.0 * nx * rows, 40.0 * nx * rows,
                                AccessPattern::Spatial, 0.75, 1.0, 0.06});
      }

      // Global CFL time-step reduction: latency-bound on every step.
      ctx.commWorld().allreduce(1.0, mpi::ReduceOp::Max);
    }
    ctx.barrier();
  };
}

mpi::MpiWorld::RankBody HydroBenchmark::asyncRankBody(Params params) {
  TIB_REQUIRE(params.nx >= 64 && params.ny >= 64 && params.steps >= 1);
  TIB_REQUIRE(params.groupSize >= 1);
  return [params](mpi::MpiContext& ctx) {
    const int p = ctx.size();
    const int rank = ctx.rank();
    mpi::Communicator world = ctx.commWorld();
    const int groupSize = std::min(params.groupSize, p);
    // Row groups: contiguous blocks of groupSize ranks, keyed by world rank
    // so comm-local order matches domain order. Leaders (group rank 0) form
    // a second communicator for the upper level of the CFL reduction.
    const mpi::Communicator rowComm = world.split(rank / groupSize, rank);
    const bool leader = rowComm.rank() == 0;
    const mpi::Communicator leaders =
        world.split(leader ? 0 : mpi::kUndefinedColor, rank);
    // Halo traffic rides a duplicate of the world communicator: same ranks,
    // own match domain, so the in-flight isend/irecv pairs can never collide
    // with collective plumbing or application tags on the world.
    const mpi::Communicator halo = world.dup();

    const double rows = static_cast<double>(params.ny) / p;
    const double nx = static_cast<double>(params.nx);
    const auto haloBytes = static_cast<std::size_t>(nx * 4.0 * 8.0);
    // Interior cells can be updated while the ghost rows are on the wire;
    // the two boundary rows per side wait for the halos.
    const double interiorFrac = rows > 4.0 ? (rows - 4.0) / rows : 0.0;

    for (int step = 0; step < params.steps; ++step) {
      for (int sweep = 0; sweep < 2; ++sweep) {
        const int tag = 200 + sweep;
        std::vector<mpi::Communicator::Request> reqs;
        if (rank > 0) {
          reqs.push_back(halo.irecv(rank - 1, tag));
          reqs.push_back(halo.isend(rank - 1, tag, haloBytes));
        }
        if (rank + 1 < p) {
          reqs.push_back(halo.irecv(rank + 1, tag));
          reqs.push_back(halo.isend(rank + 1, tag, haloBytes));
        }
        // Interior update overlaps the in-flight halos.
        ctx.compute(WorkProfile{75.0 * nx * rows * interiorFrac,
                                40.0 * nx * rows * interiorFrac,
                                AccessPattern::Spatial, 0.75, 1.0, 0.06});
        halo.waitall(reqs);
        // Boundary rows once the ghosts are in.
        ctx.compute(WorkProfile{75.0 * nx * rows * (1.0 - interiorFrac),
                                40.0 * nx * rows * (1.0 - interiorFrac),
                                AccessPattern::Spatial, 0.75, 1.0, 0.06});
      }

      // Two-level CFL reduction: row-local max to the group leader, a
      // non-blocking allreduce across leaders, then a group broadcast.
      const double local[1] = {1.0};
      std::vector<double> rowMax =
          rowComm.reduce(std::span<const double>(local, 1),
                         mpi::ReduceOp::Max, 0);
      double seed = 0.0;
      if (leader) {
        const mpi::Communicator::Request req =
            leaders.iallreduce(rowMax, mpi::ReduceOp::Max);
        seed = leaders.waitDoubles(req)[0];
      }
      std::vector<double> result(1, seed);
      rowComm.bcast(std::move(result), 0);
    }
    world.barrier();
  };
}

}  // namespace tibsim::apps
