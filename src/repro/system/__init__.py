"""CPU/FPGA system-level model: host layer costs and pipelined execution."""
