// Device-model interface of the MNA engine.
//
// The library devices (resistors, capacitors, independent sources and
// MOSFETs) are parameter holders: Mna_system compiles them into its stamp
// program once per pattern (spice/system.h) and owns every per-solve and
// per-iteration value, capacitor history included.  Any other Device
// subclass is an extension device: the engine stamps it on every Newton
// iteration through a Stamper (matrix/RHS access with ground- and
// driven-node handling folded in) and an Eval_context (current iterate,
// time step, integration method).
#ifndef MPSRAM_SPICE_DEVICE_H
#define MPSRAM_SPICE_DEVICE_H

#include <string>
#include <vector>

namespace mpsram::spice {

/// Node handle: index into the circuit's node table; 0 is ground.
using Node = int;
inline constexpr Node ground_node = 0;

enum class Integration_method { backward_euler, trapezoidal };

enum class Analysis_mode { dc, transient };

/// Per-iteration evaluation context.
struct Eval_context {
    Analysis_mode mode = Analysis_mode::dc;
    Integration_method method = Integration_method::trapezoidal;
    /// Target time of this solve [s] (0 in DC).
    double time = 0.0;
    /// Current step size [s] (0 in DC).
    double dt = 0.0;
    /// Full-length node voltage vector of the current iterate (indexed by
    /// Node, ground and driven nodes included and kept up to date).
    const double* voltages = nullptr;

    double v(Node n) const { return voltages[n]; }
};

/// Matrix/RHS access handed to devices.  Implementations route entries for
/// ground and driven (known-voltage) nodes automatically: stamping a
/// conductance toward a driven node lands on the RHS with the driven value.
class Stamper {
public:
    virtual ~Stamper() = default;

    /// J[eq][wrt] += g   (KCL equation of node `eq`, unknown `wrt`).
    virtual void jacobian(Node eq, Node wrt, double g) = 0;

    /// rhs[eq] += value.
    virtual void rhs(Node eq, double value) = 0;

    /// Two-terminal conductance g between nodes a and b.
    void conductance(Node a, Node b, double g)
    {
        jacobian(a, a, g);
        jacobian(b, b, g);
        jacobian(a, b, -g);
        jacobian(b, a, -g);
    }

    /// Independent current `i` flowing into node n.
    void current_into(Node n, double i) { rhs(n, i); }
};

class Device {
public:
    explicit Device(std::string name, std::vector<Node> nodes)
        : name_(std::move(name)), nodes_(std::move(nodes)) {}
    virtual ~Device() = default;

    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    const std::string& name() const { return name_; }
    const std::vector<Node>& nodes() const { return nodes_; }

    /// Extension devices: contribute linearized equations at the current
    /// iterate, on every Newton iteration.  Each call must touch the same
    /// (eq, wrt) positions (the sparsity pattern is recorded once).  The
    /// library devices are compiled by Mna_system and keep this no-op.
    virtual void stamp(Stamper& s, const Eval_context& ctx) const
    {
        (void)s;
        (void)ctx;
    }

    /// Report waveform corner times in (0, tstop) for breakpoint handling.
    virtual void add_breakpoints(double tstop,
                                 std::vector<double>& out) const
    {
        (void)tstop;
        (void)out;
    }

private:
    std::string name_;
    std::vector<Node> nodes_;
};

} // namespace mpsram::spice

#endif // MPSRAM_SPICE_DEVICE_H
