//! The appliance under test: a default-configured `NestServer` on the
//! local-disk backend (lot persistence on), staged over HTTP.

use crate::gen::{FileRef, Pattern, Proto, Spec, CLIENTS};
use crate::wire::Conn;
use nest_core::config::{BackendKind, NestConfig};
use nest_core::NestServer;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct Appliance {
    pub server: NestServer,
    pub chirp: SocketAddr,
    pub http: SocketAddr,
    root: PathBuf,
}

/// Every file the workload starts with: the shared inputs, then each
/// client's outputs at version 0.
pub fn staged_files(spec: &Spec) -> Vec<FileRef> {
    let inputs = (0..spec.inputs).map(FileRef::Input);
    let outputs = (0..CLIENTS).flat_map(|client| {
        (0..spec.outputs_per_client).map(move |index| FileRef::Output { client, index })
    });
    inputs.chain(outputs).collect()
}

impl Appliance {
    /// Starts an appliance whose storage root is `root` (created fresh;
    /// its lot and ACL stores land beside it) and stages `spec`'s files.
    /// Returns it with the seconds the start and staging took.
    pub fn setup(root: &Path, spec: &Spec, pattern: &Pattern) -> io::Result<(Self, f64)> {
        remove_root(root);
        std::fs::create_dir_all(root)?;
        let t = Instant::now();
        let config = NestConfig::builder("e2ebench")
            .backend(BackendKind::LocalFs(root.to_path_buf()))
            .build()
            .map_err(io::Error::other)?;
        let server = NestServer::start(config)?;
        let files = staged_files(spec);
        let bytes = (files.len() * spec.file_size) as u64;
        server.grant_default_lot("anonymous", 2 * bytes + (16 << 20), 24 * 3600)?;
        let chirp = server
            .chirp_addr
            .ok_or_else(|| io::Error::other("no chirp front"))?;
        let http = server
            .http_addr
            .ok_or_else(|| io::Error::other("no http front"))?;
        let mut conn = Conn::connect(Proto::Http, http)?;
        for f in files {
            let shift = pattern.shift(spec, f, 0);
            conn.put(&f.path(), spec.file_size as u64, pattern, shift)?;
        }
        drop(conn);
        let secs = t.elapsed().as_secs_f64();
        let appliance = Self {
            server,
            chirp,
            http,
            root: root.to_path_buf(),
        };
        Ok((appliance, secs))
    }

    pub fn addr(&self, proto: Proto) -> SocketAddr {
        match proto {
            Proto::Chirp => self.chirp,
            Proto::Http => self.http,
        }
    }

    /// Drains the appliance and deletes its storage.
    pub fn teardown(self) {
        self.server.shutdown();
        remove_root(&self.root);
    }
}

fn sibling(root: &Path, suffix: &str) -> PathBuf {
    let mut s = root.as_os_str().to_owned();
    s.push(suffix);
    PathBuf::from(s)
}

fn remove_root(root: &Path) {
    // Absent files are the normal case on a first setup.
    let _ = std::fs::remove_dir_all(root);
    for store in [".lots", ".acls"] {
        let _ = std::fs::remove_file(sibling(root, store));
    }
}
