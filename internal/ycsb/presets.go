package ycsb

// Table 1 of the paper: the five stress workloads with their typical
// usages, operation mixes, and request distributions. Record count and
// sizing are filled in by the caller (the paper uses 100 M × 1 KB records
// for stress tests; experiments scale this down, see DESIGN.md).

// StressDefaults applies the paper's stress-test record shape: 1 KB
// records of ten 100-byte fields.
func StressDefaults(s Spec, records int64) Spec {
	s.RecordCount = records
	s.FieldCount = 10
	s.FieldLength = 100
	s.ReadAllFields = true
	s.WriteAllFields = false
	s.MaxScanLength = 100
	s.KeyPad = 10
	return s
}

// MicroDefaults applies the paper's micro-test record shape: tiny records
// so latency variance from payload size vanishes.
func MicroDefaults(s Spec, records int64) Spec {
	s.RecordCount = records
	s.FieldCount = 1
	s.FieldLength = 1
	s.ReadAllFields = true
	s.WriteAllFields = true
	s.MaxScanLength = 50
	s.KeyPad = 10
	return s
}

// ReadMostly is Table 1 row 1: online tagging, read/update 95/5, zipfian.
func ReadMostly(records int64) Spec {
	return StressDefaults(Spec{
		Name:                "read-mostly",
		Usage:               "Online tagging",
		Comment:             "Read/update ratio: 95/5",
		ReadProportion:      0.95,
		UpdateProportion:    0.05,
		RequestDistribution: DistZipfian,
	}, records)
}

// ReadLatest is Table 1 row 2: feeds reading, read/insert 80/20, latest.
func ReadLatest(records int64) Spec {
	return StressDefaults(Spec{
		Name:                "read-latest",
		Usage:               "Feeds reading",
		Comment:             "Read/insert ratio: 80/20",
		ReadProportion:      0.80,
		InsertProportion:    0.20,
		RequestDistribution: DistLatest,
	}, records)
}

// ReadUpdate is Table 1 row 3: online shopping cart, read/update 50/50,
// zipfian.
func ReadUpdate(records int64) Spec {
	return StressDefaults(Spec{
		Name:                "read-update",
		Usage:               "Online shopping cart",
		Comment:             "Read/update ratio: 50/50",
		ReadProportion:      0.50,
		UpdateProportion:    0.50,
		RequestDistribution: DistZipfian,
	}, records)
}

// ReadModifyWrite is Table 1 row 4: user profile, read/RMW 50/50, zipfian.
func ReadModifyWrite(records int64) Spec {
	return StressDefaults(Spec{
		Name:                "read-modify-write",
		Usage:               "User profile",
		Comment:             "Read/read-modify-write ratio: 50/50",
		ReadProportion:      0.50,
		RMWProportion:       0.50,
		RequestDistribution: DistZipfian,
	}, records)
}

// ScanShortRanges is Table 1 row 5: topic retrieving, scan/insert 95/5,
// zipfian.
func ScanShortRanges(records int64) Spec {
	return StressDefaults(Spec{
		Name:                "scan-short-ranges",
		Usage:               "Topic retrieving",
		Comment:             "Scan/insert ratio: 95/5",
		ScanProportion:      0.95,
		InsertProportion:    0.05,
		RequestDistribution: DistZipfian,
	}, records)
}

// StressWorkloads returns the five Table 1 workloads in paper order.
func StressWorkloads(records int64) []Spec {
	return []Spec{
		ReadLatest(records),
		ScanShortRanges(records),
		ReadMostly(records),
		ReadModifyWrite(records),
		ReadUpdate(records),
	}
}

// Micro workloads: the atomic single-operation tests of §4.1.

// MicroRead is a 100% read workload on tiny records.
func MicroRead(records int64) Spec {
	return MicroDefaults(Spec{
		Name:                "micro-read",
		ReadProportion:      1,
		RequestDistribution: DistUniform,
	}, records)
}

// MicroUpdate is a 100% update workload on tiny records.
func MicroUpdate(records int64) Spec {
	return MicroDefaults(Spec{
		Name:                "micro-update",
		UpdateProportion:    1,
		RequestDistribution: DistUniform,
	}, records)
}

// MicroInsert is a 100% insert workload on tiny records.
func MicroInsert(records int64) Spec {
	return MicroDefaults(Spec{
		Name:                "micro-insert",
		InsertProportion:    1,
		RequestDistribution: DistUniform,
	}, records)
}

// MicroScan is a 100% scan workload on tiny records.
func MicroScan(records int64) Spec {
	return MicroDefaults(Spec{
		Name:                "micro-scan",
		ScanProportion:      1,
		RequestDistribution: DistUniform,
	}, records)
}
