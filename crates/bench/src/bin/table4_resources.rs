//! Table 4: accelerator resource usage and maximum clock frequency per code
//! distance.
//!
//! Usage: `cargo run -r -p bench --bin table4_resources`

use bench::{render_table, table4_resources};

fn main() {
    let d_list = [3, 5, 7, 9, 11, 13, 15];
    let rows = table4_resources(&d_list);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.code_distance.unwrap().to_string(),
                r.vertices.to_string(),
                r.edges.to_string(),
                format!("{:.1} kB", r.cpu_memory_bytes as f64 / 1000.0),
                format!("{} b", r.vpu_bits),
                format!("{} b", r.epu_bits),
                format!("{:.1} kb", r.fpga_memory_bits as f64 / 1000.0),
                format!("{:.0} k", r.luts / 1000.0),
                format!("{:.0}", r.frequency_mhz),
            ]
        })
        .collect();
    println!("Table 4: resource usage and maximum clock frequency");
    println!(
        "{}",
        render_table(
            &["d", "|V|", "|E|", "CPU mem", "vPU", "ePU", "FPGA mem", "LUTs", "freq MHz"],
            &table
        )
    );
    println!(
        "(LUTs and frequency use the paper-calibrated model; |V| and |E| are of the \
         phenomenological evaluation graphs, not the paper's circuit-level ones)"
    );
}
