//! Dataset (de)serialization for the CLI: a `CityDataset` is not directly
//! serde-able (it holds the live traffic model), so the CLI stores the
//! *generating configuration* plus the materialized orders and rebuilds
//! deterministic state on load.

use deepod_roadnet::RoadNetwork;
use deepod_traffic::{CongestionModel, IncidentModel, TrafficModel, WeatherProcess};
use deepod_traj::{CityDataset, DatasetConfig, TaxiOrder};
use serde::{Deserialize, Serialize};

/// On-disk dataset representation.
#[derive(Serialize, Deserialize)]
pub struct DatasetFile {
    /// The generator config (for provenance and re-simulation).
    pub config: DatasetConfig,
    /// The road network.
    pub net: RoadNetwork,
    /// Train orders.
    pub train: Vec<TaxiOrder>,
    /// Validation orders.
    pub validation: Vec<TaxiOrder>,
    /// Test orders.
    pub test: Vec<TaxiOrder>,
}

impl DatasetFile {
    /// Captures a built dataset.
    pub fn from_dataset(ds: &CityDataset) -> Self {
        DatasetFile {
            config: ds.config.clone(),
            net: ds.net.clone(),
            train: ds.train.clone(),
            validation: ds.validation.clone(),
            test: ds.test.clone(),
        }
    }

    /// Restores a usable `CityDataset`. The traffic model is rebuilt from
    /// the config seed, which reproduces the generating process exactly
    /// (all stochastic state is seed-derived).
    pub fn into_dataset(self) -> CityDataset {
        let total_days = self.config.train_days + self.config.val_days + self.config.test_days;
        let horizon = total_days as f64 * 86_400.0;
        let mut rng = deepod_tensor::rng_from_seed(self.config.sim.seed ^ 0xA5A5_5A5A);
        let weather = WeatherProcess::sample(horizon + 86_400.0, 1800.0, &mut rng);
        let incidents = if self.config.incidents_per_day > 0.0 {
            IncidentModel::sample(&self.net, horizon, self.config.incidents_per_day, &mut rng)
        } else {
            IncidentModel::none()
        };
        let traffic = TrafficModel::new(&self.net, CongestionModel::default(), weather, &mut rng)
            .with_incidents(incidents);
        CityDataset {
            net: self.net,
            traffic,
            train: self.train,
            validation: self.validation,
            test: self.test,
            config: self.config,
        }
    }
}

/// Writes a dataset as checksummed JSON (atomically: a crash mid-write
/// leaves any previous file intact instead of a torn one).
pub fn save_dataset(ds: &CityDataset, path: &str) -> Result<(), String> {
    let file = DatasetFile::from_dataset(ds);
    let json = serde_json::to_string(&file).map_err(|e| e.to_string())?;
    deepod_core::io_guard::write_checksummed(std::path::Path::new(path), json.as_bytes())
        .map_err(|e| format!("writing dataset: {e}"))
}

/// Reads a dataset written by [`save_dataset`].
pub fn load_dataset(path: &str) -> Result<CityDataset, String> {
    let payload = read_artifact(path)?;
    let json = std::str::from_utf8(&payload).map_err(|e| format!("parsing {path}: {e}"))?;
    let file: DatasetFile =
        serde_json::from_str(json).map_err(|e| format!("parsing {path}: {e}"))?;
    Ok(file.into_dataset())
}

/// The verified payload of a checksummed CLI artifact (a dataset or a
/// model file). A truncated or altered file is a checksum error, and so
/// is a plain-JSON file from before these artifacts were checksummed;
/// the error for a missing footer names both causes and the fix.
pub fn read_artifact(path: &str) -> Result<Vec<u8>, String> {
    use deepod_core::io_guard::{self, IoGuardError};
    io_guard::read_checksummed(std::path::Path::new(path)).map_err(|e| match e {
        IoGuardError::BadMagic { .. } => format!(
            "{e}: the file is truncated, or is plain JSON from before datasets and \
             models were checksummed — regenerate it with `deepod simulate` or `deepod train`"
        ),
        e => e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepod_roadnet::CityProfile;
    use deepod_traj::DatasetBuilder;

    #[test]
    fn round_trip_preserves_orders_and_network() {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 40));
        let dir = std::env::temp_dir().join("deepod_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.json");
        let path = path.to_str().unwrap();

        save_dataset(&ds, path).unwrap();
        let back = load_dataset(path).unwrap();
        assert_eq!(back.net.num_edges(), ds.net.num_edges());
        assert_eq!(back.train.len(), ds.train.len());
        assert_eq!(back.test.len(), ds.test.len());
        assert_eq!(back.train[0].travel_time, ds.train[0].travel_time);
        // Rebuilt traffic model reproduces weather (seed-derived).
        assert_eq!(
            back.traffic.weather().at(1000.0),
            ds.traffic.weather().at(1000.0)
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load_dataset("/nonexistent/deepod.json").is_err());
    }

    #[test]
    fn edited_truncated_or_plain_json_files_are_corruption_errors() {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 30));
        let dir = std::env::temp_dir().join("deepod_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("corrupt_{}.ds", std::process::id()));
        let path = path.to_str().unwrap();
        save_dataset(&ds, path).unwrap();
        let good = std::fs::read(path).unwrap();
        let footer = deepod_core::io_guard::FOOTER_LEN as usize;
        let payload = &good[..good.len() - footer];

        // One digit of the payload changed: still valid JSON, and still a
        // plausible dataset, but no longer the bytes that were written.
        let digit = payload.iter().position(u8::is_ascii_digit).unwrap();
        let mut edited = good.clone();
        edited[digit] ^= 1; // '0' <-> '1', ..., '8' <-> '9'
        let half = good[..good.len() / 2].to_vec();
        let cases = [
            ("edited", edited, "checksum mismatch"),
            ("truncated", half, "checksum footer"),
            ("plain JSON", payload.to_vec(), "plain JSON from before"),
        ];
        for (label, bytes, want) in cases {
            deepod_core::io_guard::atomic_write(std::path::Path::new(path), &bytes).unwrap();
            let typed = deepod_core::io_guard::read_checksummed(std::path::Path::new(path))
                .expect_err(label);
            assert!(typed.is_corruption(), "{label}: {typed}");
            let err = load_dataset(path).err().expect(label);
            assert!(err.contains(want), "{label}: {err}");
        }
        std::fs::remove_file(path).ok();
    }
}
