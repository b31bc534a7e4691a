//! `gt-client` — command-line GraphTrek proto client.
//!
//! ```text
//! gt-client --connect tcp:127.0.0.1:7171 [--tenant NAME] \
//!           [--deadline-ms N] [--metrics] 'v(1).e("run").rtn()'
//! ```

use gt_client::{Client, ClientError};
use gt_proto::SubmitOpts;
use gt_transport::SocketAddrSpec;

fn usage() -> ! {
    eprintln!(
        "usage: gt-client --connect <tcp:HOST:PORT | uds:PATH> [options] [GTRAVEL]\n\
         \n\
         options:\n\
           --tenant NAME       tenant in the hello (default: \"default\")\n\
           --deadline-ms N     per-request deadline\n\
           --metrics           print per-tenant QoS counters and exit\n\
         \n\
         GTRAVEL is a chain in the text grammar, e.g. v(1).e('run').rtn()"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut connect: Option<SocketAddrSpec> = None;
    let mut tenant = "default".to_string();
    let mut deadline_ms: Option<u64> = None;
    let mut metrics = false;
    let mut gtravel: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => {
                let spec = args.next().unwrap_or_else(|| usage());
                match SocketAddrSpec::parse(&spec) {
                    Ok(s) => connect = Some(s),
                    Err(e) => {
                        eprintln!("gt-client: bad address `{spec}`: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--tenant" => tenant = args.next().unwrap_or_else(|| usage()),
            "--deadline-ms" => {
                let n = args.next().unwrap_or_else(|| usage());
                match n.parse() {
                    Ok(n) => deadline_ms = Some(n),
                    Err(_) => usage(),
                }
            }
            "--metrics" => metrics = true,
            "--help" | "-h" => usage(),
            q if !q.starts_with('-') && gtravel.is_none() => gtravel = Some(q.to_string()),
            _ => usage(),
        }
    }
    let Some(addr) = connect else { usage() };
    if !metrics && gtravel.is_none() {
        usage();
    }

    let mut client = match Client::connect(&addr, &tenant) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("gt-client: connect failed: {e}");
            std::process::exit(1);
        }
    };
    if metrics {
        match client.metrics() {
            Ok(counters) => {
                for (name, value) in counters {
                    println!("{name} {value}");
                }
            }
            Err(e) => {
                eprintln!("gt-client: metrics failed: {e}");
                std::process::exit(1);
            }
        }
        client.close();
        return;
    }
    let Some(query) = gtravel else { usage() };
    match client.run(&query, SubmitOpts { deadline_ms }) {
        Ok(reply) => {
            for (depth, vertices) in &reply.by_depth {
                let ids: Vec<String> = vertices.iter().map(|v| v.to_string()).collect();
                println!("depth {depth}: {}", ids.join(" "));
            }
            eprintln!(
                "{} vertices in {} us ({} executions)",
                reply.vertices().len(),
                reply.elapsed_us,
                reply.progress.created
            );
            client.close();
        }
        Err(ClientError::Travel(e)) => {
            eprintln!("gt-client: travel failed: {e}");
            client.close();
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("gt-client: {e}");
            std::process::exit(1);
        }
    }
}
