// Device-model interface of the MNA engine.
//
// The device set is closed: resistors, capacitors, current sources,
// voltage sources and MOSFETs, the five classes Circuit can build
// (spice/circuit.h).  They are parameter holders: Mna_system compiles them
// into its stamp program once per pattern (spice/system.h) and owns every
// per-solve and per-iteration value, capacitor history included.  A new
// device model is a new compiled entry kind in that program, not a
// subclass stamped through a virtual hook.
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

/// Per-solve evaluation context.
struct Eval_context {
    Analysis_mode mode = Analysis_mode::dc;
    Integration_method method = Integration_method::trapezoidal;
    /// Target time of this solve [s] (0 in DC).
    double time = 0.0;
    /// Current step size [s] (0 in DC).
    double dt = 0.0;
    /// Full-length node voltage vector of the accepted point (indexed by
    /// Node, ground and driven nodes included); read by
    /// Mna_system::accept to latch the capacitor history.
    const double* voltages = nullptr;
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
