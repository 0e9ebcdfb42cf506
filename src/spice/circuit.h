// Circuit database: named nodes plus an owned list of devices.  Devices
// enter only through the add_* builders, so the list holds the five
// library classes the MNA engine compiles (spice/system.h).
#ifndef MPSRAM_SPICE_CIRCUIT_H
#define MPSRAM_SPICE_CIRCUIT_H

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "spice/device.h"
#include "spice/linear_devices.h"
#include "spice/mosfet.h"

namespace mpsram::spice {

class Circuit {
public:
    Circuit();

    /// Get-or-create a named node.  "0" and "gnd" are the ground node.
    Node node(const std::string& name);

    /// Look up an existing node; throws if absent.
    Node find_node(const std::string& name) const;

    const std::string& node_name(Node n) const;
    std::size_t node_count() const { return node_names_.size(); }

    // --- builder API --------------------------------------------------------
    Resistor& add_resistor(std::string name, Node a, Node b, double ohms);
    Capacitor& add_capacitor(std::string name, Node a, Node b, double farads);
    Current_source& add_current_source(std::string name, Node from, Node to,
                                       Waveform w);
    Voltage_source& add_voltage_source(std::string name, Node pos, Node neg,
                                       Waveform w);
    Mosfet& add_mosfet(std::string name, Node drain, Node gate, Node source,
                       Mosfet_params params, double multiplicity = 1.0);

    const std::vector<std::unique_ptr<Device>>& devices() const
    {
        return devices_;
    }

    const std::vector<Voltage_source*>& voltage_sources() const
    {
        return vsources_;
    }

    std::size_t device_count() const { return devices_.size(); }

    /// Total capacitance attached to a node (diagnostics/tests).
    double node_capacitance(Node n) const;

private:
    template <typename T, typename... Args>
    T& add_device(Args&&... args);

    void check_node(Node n) const;
    void check_name(const std::string& name);

    std::vector<std::string> node_names_;
    std::unordered_map<std::string, Node> node_index_;
    std::vector<std::unique_ptr<Device>> devices_;
    std::unordered_set<std::string> device_names_;
    std::vector<Voltage_source*> vsources_;
};

} // namespace mpsram::spice

#endif // MPSRAM_SPICE_CIRCUIT_H
