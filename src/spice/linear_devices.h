// Linear circuit elements: resistor, capacitor, independent sources.
//
// These are parameter holders.  Mna_system compiles them into its stamp
// program (spice/system.h): resistor and capacitor values into the
// conductance and capacitance arrays, capacitor history into its own
// arrays, and sources into the per-solve right-hand side.
#ifndef MPSRAM_SPICE_LINEAR_DEVICES_H
#define MPSRAM_SPICE_LINEAR_DEVICES_H

#include "spice/device.h"
#include "spice/waveform.h"

namespace mpsram::spice {

class Resistor final : public Device {
public:
    Resistor(std::string name, Node a, Node b, double ohms);

    double resistance() const { return ohms_; }

    /// Re-point the element at a new value (sweep reuse).  Values do not
    /// affect the MNA sparsity pattern, so a compiled system stays valid;
    /// the edit takes effect at the next analysis run
    /// (Mna_system::reset_reuse_state reloads the compiled values).
    void set_resistance(double ohms);

private:
    double ohms_;
};

/// Capacitor, integrated with trapezoidal / backward-Euler companion
/// models by the MNA system, which also keeps its history.
class Capacitor final : public Device {
public:
    Capacitor(std::string name, Node a, Node b, double farads);

    double capacitance() const { return farads_; }

    /// Re-point the element at a new value (sweep reuse); takes effect at
    /// the next analysis run, like Resistor::set_resistance.
    void set_capacitance(double farads);

private:
    double farads_;
};

/// Independent current source: `value(t)` amps flow from `from` to `to`
/// through the source (i.e. injected into `to`).
class Current_source final : public Device {
public:
    Current_source(std::string name, Node from, Node to, Waveform w);

    Node from() const { return nodes()[0]; }
    Node to() const { return nodes()[1]; }

    void add_breakpoints(double tstop, std::vector<double>& out) const override;

    double value(double t) const { return wave_.value(t); }
    const Waveform& wave() const { return wave_; }

private:
    Waveform wave_;
};

/// Ideal independent voltage source, v(pos) - v(neg) = value(t).
///
/// The MNA system special-cases these: a source whose `neg` is ground
/// turns `pos` into a driven node (no extra unknown); a floating source
/// gets a branch-current unknown.
class Voltage_source final : public Device {
public:
    Voltage_source(std::string name, Node pos, Node neg, Waveform w);

    Node pos() const { return nodes()[0]; }
    Node neg() const { return nodes()[1]; }
    bool grounded() const { return neg() == ground_node; }

    void add_breakpoints(double tstop, std::vector<double>& out) const override;

    double value(double t) const { return wave_.value(t); }
    const Waveform& wave() const { return wave_; }

private:
    Waveform wave_;
};

} // namespace mpsram::spice

#endif // MPSRAM_SPICE_LINEAR_DEVICES_H
